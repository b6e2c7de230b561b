import random
from fractions import Fraction
from itertools import combinations

import pytest

from czswap.group import PairSet, Permutation
from czswap.poly import poly_is_zero
from czswap.ring import RingScalar
from czswap.states import ParamSpec, PureState, named_state, phi_state
from czswap.three_qubit import (
    Class3,
    catalecticant3,
    catalecticant3_symbolic,
    classify3,
    crossing_example_state,
    delta3,
    delta3_symbolic,
    lu_rotated_path_state,
    no_w_certificate,
)
from helpers import rand_pairs


def all_pair_sets_3():
    pairs = list(combinations(range(3), 2))
    for mask in range(8):
        yield PairSet.of(3, [p for i, p in enumerate(pairs) if (mask >> i) & 1])


def test_delta3_ghz_is_one_quarter():
    assert delta3(named_state("GHZ", 3)) == RingScalar(Fraction(1, 4))


def test_delta3_w_is_zero():
    assert delta3(named_state("W", 3)) == 0


def test_delta3_product_state_zero():
    s = PureState.exact(3, [1, 0, 0, 0, 0, 0, 0, 0])
    assert delta3(s) == 0
    assert poly_is_zero(catalecticant3(s))


def test_delta3_wrong_k():
    with pytest.raises(ValueError):
        delta3(named_state("GHZ", 4))


def test_catalecticant_w_nonzero():
    assert not poly_is_zero(catalecticant3(named_state("W", 3)))


def test_catalecticant_ghz_value():
    # B_x of the GHZ ground form is x0*x1/2, so the catalecticant is a
    # nonzero trilinear covariant; spot the B_x fact through the classifier
    from czswap.poly import MultiPoly, VarId
    from czswap.states import multilinear_form

    a = multilinear_form(named_state("GHZ", 3).amps, range(3))
    d2 = {}
    for yc in (0, 1):
        for zc in (0, 1):
            d2[(yc, zc)] = a.differentiate(VarId(1, yc)).differentiate(VarId(0, zc))
    b_x = d2[(0, 0)] * d2[(1, 1)] - d2[(0, 1)] * d2[(1, 0)]
    expected = MultiPoly.variable(3, 2, 0) * MultiPoly.variable(3, 2, 1) * RingScalar(
        Fraction(1, 2)
    )
    assert b_x == expected


def test_classify_named_states():
    assert classify3(named_state("GHZ", 3)) is Class3.GHZ_CLASS
    assert classify3(named_state("W", 3)) is Class3.W_CLASS
    assert classify3(PureState.exact(3, [1, 0, 0, 0, 0, 0, 0, 0])) is Class3.DEGENERATE


def test_phase_graph_states_never_w_class():
    rng = random.Random(17)
    for e in all_pair_sets_3():
        for _ in range(5):
            params = ParamSpec(rand_pairs(rng, 3))
            assert classify3(phi_state(e, params)) is not Class3.W_CLASS


def test_no_w_certificate_all_pair_sets():
    for e in all_pair_sets_3():
        assert no_w_certificate(e)


def test_catalecticant_symbolic_matches_numeric():
    rng = random.Random(31)
    for e in all_pair_sets_3():
        cat_sym = catalecticant3_symbolic(e)
        for _ in range(2):
            params = ParamSpec(rand_pairs(rng, 3))
            evaluated = cat_sym.map_coeffs(lambda c: c.evaluate(params.pairs))
            assert evaluated == catalecticant3(phi_state(e, params)), sorted(e.pairs)


def test_delta3_symbolic_single_monomial_or_zero():
    for e in all_pair_sets_3():
        d = delta3_symbolic(e)
        assert len(d.terms) <= 1


def test_delta3_invariant_under_relabeling():
    rng = random.Random(23)
    for _ in range(20):
        amps = [RingScalar(Fraction(rng.randint(-5, 5), rng.randint(1, 5))) for _ in range(8)]
        s = PureState.exact(3, amps)
        images = [0, 1, 2]
        rng.shuffle(images)
        sigma = Permutation(3, tuple(images))
        assert delta3(s.permute_qubits(sigma)) == delta3(s)


def test_crossing_example():
    state = crossing_example_state()
    scale = max(abs(a) for a in state.amps)
    assert abs(delta3(state)) <= 1e-9 * max(1.0, scale)
    cat = catalecticant3(state)
    assert cat.max_coeff_abs() > 1e-6
    assert classify3(state) is Class3.W_CLASS


def test_lu_rotated_state_is_ghz_class():
    assert classify3(lu_rotated_path_state()) is Class3.GHZ_CLASS
