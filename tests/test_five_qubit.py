import random
from itertools import combinations, product

import pytest

from czswap.five_qubit import (
    GENERICALLY_NONSINGULAR,
    FiveQubitWitness,
    WitnessNotFound,
    _class_and_relabeling,
    all_edge_classes,
    class_of,
    tabulated_solution_5q,
)
from czswap.group import PairSet, conjugate_pairs
from czswap.hyperdet import hyperdet_system_check
from czswap.ring import ONE, RingScalar
from czswap.states import ParamSpec, phi_state, random_params
from helpers import rand_pairs


def all_pair_sets_5():
    pairs = list(combinations(range(5), 2))
    for mask in range(1024):
        yield PairSet.of(5, [p for i, p in enumerate(pairs) if (mask >> i) & 1])


def test_class_table_covers_all_graphs():
    counts = {}
    for e in all_pair_sets_5():
        row = class_of(e)
        counts[row.index] = counts.get(row.index, 0) + 1
    assert sum(counts.values()) == 1024
    for row in all_edge_classes():
        assert counts[row.index] == row.cardinal, (row.index, row.shape)


def test_relabeling_takes_every_edge_set_to_its_representative():
    for e in all_pair_sets_5():
        row, sigma = _class_and_relabeling(e)
        assert row is class_of(e)
        assert conjugate_pairs(sigma, e) == PairSet.of(5, row.representative), sorted(e.pairs)


def test_representatives_resolve_with_expected_sources():
    rng = random.Random(55)
    printed_ok = {1, 2, 3, 4, 5, 6, 7, 29}
    for row in all_edge_classes():
        e = PairSet.of(5, row.representative)
        params = random_params(5, rng)
        if row.index in GENERICALLY_NONSINGULAR:
            with pytest.raises(WitnessNotFound):
                tabulated_solution_5q(e, params)
            continue
        witness = tabulated_solution_5q(e, params)
        assert isinstance(witness, FiveQubitWitness)
        assert witness.class_index == row.index
        assert hyperdet_system_check(phi_state(e, params), witness.solution)
        if row.index in printed_ok:
            assert not witness.from_fallback and witness.discrepancy is None
        else:
            assert witness.from_fallback and witness.discrepancy


def test_relabeled_edge_sets_resolve():
    # exercise the permutation transport on non-representative labelings
    rng = random.Random(66)
    samples = [
        [(1, 2)],                      # class 2 relabeled
        [(2, 4), (2, 3), (2, 1)],      # star at 2
        [(0, 2), (1, 3)],              # two disjoint edges
        [(1, 2), (2, 4), (1, 4), (0, 3)],  # triangle + edge
    ]
    for pairs in samples:
        e = PairSet.of(5, pairs)
        for _ in range(2):
            params = random_params(5, rng)
            witness = tabulated_solution_5q(e, params)
            assert hyperdet_system_check(phi_state(e, params), witness.solution)


def test_nonsingular_classes_raise_with_analysis():
    rng = random.Random(77)
    e = PairSet.of(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])  # 5-cycle
    params = random_params(5, rng)
    with pytest.raises(WitnessNotFound) as err:
        tabulated_solution_5q(e, params)
    assert "generically nonsingular" in str(err.value)
    assert err.value.class_index == 15


def test_malformed_row_27_reports_six_components():
    row = next(r for r in all_edge_classes() if r.index == 27)
    assert row.solution is None
    assert "six components" in row.formula


def test_structural_fallback_on_disconnected_graph():
    rng = random.Random(88)
    # two components: edge {0,1} and triangle {2,3,4}; printed row 13 is wrong
    e = PairSet.of(5, [(0, 1), (2, 3), (3, 4), (2, 4)])
    params = ParamSpec(rand_pairs(rng, 5))
    witness = tabulated_solution_5q(e, params)
    assert witness.from_fallback
    assert hyperdet_system_check(phi_state(e, params), witness.solution)


def test_gaussian_rational_parameters_supported():
    # parameters may be Gaussian rationals, not just positive rationals
    i = RingScalar.i()
    params = ParamSpec((
        (ONE, ONE + i),
        (RingScalar(2), ONE),
        (ONE, RingScalar(3) + i),
        (ONE, ONE),
        (RingScalar(5), ONE - i),
    ))
    e = PairSet.of(5, [(0, 1), (0, 2)])
    witness = tabulated_solution_5q(e, params)
    assert hyperdet_system_check(phi_state(e, params), witness.solution)


# ---------------------------------------------------------------------------
# Groebner certificates over all of (P^1)^5
# ---------------------------------------------------------------------------

PATH5 = ((0, 1), (1, 2), (2, 3), (3, 4))


def complement5(pairs):
    removed = set(pairs)
    return tuple(p for p in combinations(range(5), 2) if p not in removed)


# One representative per generically nonsingular class, each with its own
# parameter seed; the certificate tests below prove each of them.
CERTIFIED_EDGE_SETS = {
    15: (PATH5 + ((0, 4),), 20250810),
    27: (complement5([(0, 1), (0, 2), (1, 3)]), 20250812),
    34: (complement5(PATH5), 20250811),
}


def nonempty_charts(pairs, seed):
    """Charts of (P^1)^5 on which the ground-form system of Z_E on a random
    rational product state has a common zero.

    Pair q is put either on the chart u_q = 1 or on the chart u_q = 0,
    w_q = 1; the 32 products of these charts cover (P^1)^5, so an empty
    result proves that the system has no nontrivial solution, i.e. that the
    hyperdeterminant does not vanish at this parameter point.  A chart is
    empty when the reduced Groebner basis of the system plus the chart
    equations is {1}.  Returns the parameter draws (integer pairs, one per
    qubit) and the non-empty charts, each a tuple with entry 0 for u_q = 1
    and 1 for u_q = 0.
    """
    import sympy as sp

    rng = random.Random(seed)
    u = sp.symbols("u0:5")
    w = sp.symbols("w0:5")
    draws = [(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(5)]
    form = 0
    for alpha in product((0, 1), repeat=5):
        term = sp.Integer((-1) ** sum(alpha[i] * alpha[j] for (i, j) in pairs))
        for q in range(5):
            term *= draws[q][alpha[q]] * (w[q] if alpha[q] else u[q])
        form += term
    eqs = [sp.expand(form)] + [sp.expand(sp.diff(form, v)) for v in (*u, *w)]
    nonempty = []
    for chart in product((0, 1), repeat=5):
        fixed = []
        for q, on_infinity in enumerate(chart):
            fixed += [u[q], w[q] - 1] if on_infinity else [u[q] - 1]
        basis = sp.groebner(eqs + fixed, *u, *w, order="grevlex", domain="QQ")
        if basis.exprs != [1]:
            nonempty.append(chart)
    return draws, nonempty


def assert_certified_nonsingular(class_index):
    pairs, seed = CERTIFIED_EDGE_SETS[class_index]
    assert class_of(PairSet.of(5, pairs)).index == class_index
    _draws, nonempty = nonempty_charts(pairs, seed)
    assert nonempty == []


def test_certificates_cover_generically_nonsingular():
    assert set(CERTIFIED_EDGE_SETS) == GENERICALLY_NONSINGULAR


@pytest.mark.slow
def test_nonsingular_certificate_cycle5():
    """The 5-cycle class is nonsingular on all 32 charts."""
    pytest.importorskip("sympy")
    assert_certified_nonsingular(15)


@pytest.mark.slow
def test_nonsingular_certificate_path_complement():
    """The complement-of-a-path class is nonsingular on all 32 charts."""
    pytest.importorskip("sympy")
    assert_certified_nonsingular(34)


@pytest.mark.slow
def test_nonsingular_certificate_class27():
    """The complement of {{0,1},{0,2},{1,3}} is nonsingular on all 32 charts."""
    pytest.importorskip("sympy")
    assert_certified_nonsingular(27)


@pytest.mark.slow
def test_certificate_finds_the_path_witness_chart():
    """Control: the same procedure on the witnessed 5-path class finds
    non-empty charts, among them the chart of the program's own witness."""
    pytest.importorskip("sympy")
    e = PairSet.of(5, PATH5)
    assert class_of(e).index == 14
    draws, nonempty = nonempty_charts(PATH5, 20250813)
    assert nonempty
    params = ParamSpec(tuple((RingScalar(p0), RingScalar(p1)) for p0, p1 in draws))
    witness = tabulated_solution_5q(e, params)
    chart = tuple(int(v0.is_zero()) for v0, _v1 in witness.solution.pairs)
    assert chart in nonempty
