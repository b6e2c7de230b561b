import random
from fractions import Fraction

import pytest

from czswap.five_qubit import GENERICALLY_NONSINGULAR, all_edge_classes, tabulated_solution_5q
from czswap.group import PairSet
from czswap.hyperdet import (
    SystemSolution,
    _form_and_partials,
    ghz_generic,
    ground_form,
    hyperdet_system_check,
)
from czswap.poly import VarId
from czswap.ring import ONE, ZERO, RingScalar
from czswap.states import (
    ParamSpec,
    PureState,
    multilinear_form,
    named_state,
    phi_state,
    random_params,
)
from helpers import rand_pairs


def rand_scalar(rng):
    """A random element of Q(i)[sqrt2]; about one in five is zero."""
    if rng.random() < 0.2:
        return ZERO
    return RingScalar(*(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4)))


def assert_contraction_matches_oracle(state, point):
    """Each of the 2k+1 contracted values equals the literal expansion:
    build the form, differentiate, evaluate."""
    value, partials = _form_and_partials(state.amps, point)
    form = ground_form(state)
    assert value == form.evaluate(point)
    for i in range(state.k):
        for c in (0, 1):
            expected = form.differentiate(VarId(i, c)).evaluate(point)
            assert partials[2 * i + c] == expected, f"partial in x({i})_{c}"


def test_contraction_matches_oracle_on_random_states():
    rng = random.Random(41)
    for k in range(2, 6):
        for _ in range(4):
            state = PureState.exact(k, [rand_scalar(rng) for _ in range(1 << k)])
            point = tuple((rand_scalar(rng), rand_scalar(rng)) for _ in range(k))
            assert_contraction_matches_oracle(state, point)


def test_contraction_matches_oracle_on_tabulated_witnesses():
    params = random_params(5, 17)
    for row in all_edge_classes():
        if row.index in GENERICALLY_NONSINGULAR:
            continue
        e = PairSet.of(5, row.representative)
        point = tabulated_solution_5q(e, params).solution.pairs
        state = phi_state(e, params)
        assert_contraction_matches_oracle(state, point)
        value, partials = _form_and_partials(state.amps, point)
        assert value == 0 and all(p == 0 for p in partials), f"class {row.index}"


def test_multilinear_form_matches_brute_force():
    rng = random.Random(43)
    for k, order in ((2, range(2)), (3, range(3)), (4, range(4)), (5, range(5)), (4, (3, 2, 1, 0))):
        order = tuple(order)
        amps = [rand_scalar(rng) for _ in range(1 << k)]
        form = multilinear_form(amps, order)
        assert len(form.terms) == sum(1 for a in amps if a)
        point = tuple((rand_scalar(rng), rand_scalar(rng)) for _ in range(k))
        expected = ZERO
        for n, a in enumerate(amps):
            term = a
            for j, q in enumerate(order):
                term = term * point[j][(n >> q) & 1]
            expected = expected + term
        assert form.evaluate(point) == expected, f"order {order}"


def test_system_solution_rejects_trivial_pair():
    with pytest.raises(ValueError):
        SystemSolution(((ZERO, ZERO), (ONE, ONE)))


def test_ground_form_of_ghz():
    f = ground_form(named_state("GHZ", 3))
    assert len(f.terms) == 2
    assert f.degree_in((0, 0)) == 1


def test_ghz4_known_solution_passes():
    # zeroing the 0-components of two pairs and the 1-components of the others
    state = named_state("GHZ", 4)
    sol = SystemSolution(((ZERO, ONE), (ZERO, ONE), (ONE, ZERO), (ONE, ZERO)))
    assert hyperdet_system_check(state, sol)


def test_ghz3_same_shape_candidates_fail():
    state = named_state("GHZ", 3)
    one, zero = ONE, ZERO
    for split in range(8):
        pairs = tuple(
            (zero, one) if (split >> q) & 1 else (one, zero) for q in range(3)
        )
        assert not hyperdet_system_check(state, SystemSolution(pairs))


def test_w_state_ground_form_uses_exact_companion():
    f = ground_form(named_state("W", 3))
    assert len(f.terms) == 3
    assert all(c == ONE for c in f.terms.values())


def test_hyperdet_check_arity_mismatch():
    with pytest.raises(ValueError):
        hyperdet_system_check(
            named_state("GHZ", 3),
            SystemSolution(((ONE, ONE),) * 4),
        )


def test_phi5_empty_graph_row_solution():
    # for E = {}, zeroing the linear factors of qubits 1 and 2 kills the
    # form and every partial
    rng = random.Random(3)
    params = ParamSpec(rand_pairs(rng, 5))
    state = phi_state(PairSet.empty(5), params)
    b0, b1 = params.pairs[1]
    c0, c1 = params.pairs[2]
    sol = SystemSolution((
        (ONE, ONE),
        (-b1 / b0, ONE),
        (-c1 / c0, ONE),
        (ONE, ONE),
        (ONE, ONE),
    ))
    assert hyperdet_system_check(state, sol)


def test_ghz_genericity_thresholds():
    assert ghz_generic(2) is True
    assert ghz_generic(3) is True
    for k in range(4, 9):
        assert ghz_generic(k) is False
    with pytest.raises(ValueError):
        ghz_generic(9)
    with pytest.raises(ValueError):
        ghz_generic(1)
