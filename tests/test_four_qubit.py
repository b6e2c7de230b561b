import random
from fractions import Fraction
from itertools import combinations

import pytest

from czswap.four_qubit import (
    ExactBackendRequired,
    Quartic,
    RootConfig,
    _run_ladder,
    classify_phi4,
    covariants4,
    graph_case,
    invariants4,
    invariants4_symbolic,
    ladder_ground_form,
    n_determinant,
    quartics,
    root_config,
)
from czswap.group import PairSet
from czswap.poly import MultiPoly, VarId, transvect
from czswap.ring import ONE, RingScalar
from czswap.states import ParamSpec, PureState, g_abcd_state, phi_state
from helpers import rand_pairs, transvect_literal


def all_pair_sets_4():
    pairs = list(combinations(range(4), 2))
    for mask in range(64):
        yield PairSet.of(4, [p for i, p in enumerate(pairs) if (mask >> i) & 1])


def test_invariants_null_state():
    s = PureState.exact(4, [1] + [0] * 15)
    inv = invariants4(s)
    assert inv.B == inv.L == inv.M == inv.N == inv.Dxy == 0
    for q in quartics(s):  # each quartic is exactly x^4
        assert q.coefficients() == (1, 0, 0, 0, 0)
        assert root_config(q) is RootConfig.QUADRUPLE


def test_invariants_wrong_k():
    with pytest.raises(ValueError):
        invariants4(PureState.exact(3, [1] + [0] * 7))


def test_n_is_minus_l_minus_m_and_matches_determinant():
    rng = random.Random(5)
    for _ in range(20):
        amps = [RingScalar(Fraction(rng.randint(-4, 4), rng.randint(1, 4))) for _ in range(16)]
        s = PureState.exact(4, amps)
        inv = invariants4(s)
        assert inv.N == -inv.L - inv.M
        assert n_determinant(s) == inv.N


def test_g_abcd_quartic_roots():
    g = g_abcd_state(1, 2, 3, 4)
    q1, q2, q3 = quartics(g)
    for r in (1, 4, 9, 16):
        assert q1.evaluate(RingScalar(r), ONE) == 0
    assert root_config(q1) is RootConfig.FOUR_DISTINCT


def test_quartics_share_i2_i3_disc():
    rng = random.Random(7)
    for _ in range(10):
        amps = [RingScalar(Fraction(rng.randint(-4, 4), rng.randint(1, 4))) for _ in range(16)]
        s = PureState.exact(4, amps)
        q1, q2, q3 = quartics(s)
        assert q1.i2() == q2.i2() == q3.i2()
        assert q1.i3() == q2.i3() == q3.i3()
        assert q1.discriminant() == q2.discriminant() == q3.discriminant()


def test_quartic_round_trip_and_root_configs():
    # x^4: quadruple root
    q = Quartic.from_coefficients(
        Fraction(1), Fraction(0), Fraction(0), Fraction(0), Fraction(0)
    )
    assert q.coefficients() == (1, 0, 0, 0, 0)
    assert root_config(q) is RootConfig.QUADRUPLE
    # (x^2 - y^2)^2 = x^4 - 2 x^2 y^2 + y^4: two distinct double roots
    q = Quartic.from_coefficients(
        Fraction(1), Fraction(0), Fraction(-2), Fraction(0), Fraction(1)
    )
    assert root_config(q) is RootConfig.TWO_DOUBLES
    # x^4 - 5 x^2 y^2 + 4 y^4 = (x^2-y^2)(x^2-4y^2): four distinct roots
    q = Quartic.from_coefficients(
        Fraction(1), Fraction(0), Fraction(-5), Fraction(0), Fraction(4)
    )
    assert root_config(q) is RootConfig.FOUR_DISTINCT
    # x^3 (x - y): triple root
    q = Quartic.from_coefficients(
        Fraction(1), Fraction(-1), Fraction(0), Fraction(0), Fraction(0)
    )
    assert root_config(q) is RootConfig.TRIPLE
    # x^2 (x - y)(x + 2y): exactly one double root
    # (x^2)(x^2 + x y - 2 y^2) = x^4 + x^3 y - 2 x^2 y^2
    q = Quartic.from_coefficients(
        Fraction(1), Fraction(1), Fraction(-2), Fraction(0), Fraction(0)
    )
    assert root_config(q) is RootConfig.ONE_DOUBLE
    with pytest.raises(ValueError):
        root_config(Quartic.from_coefficients(
            Fraction(0), Fraction(0), Fraction(0), Fraction(0), Fraction(0)
        ))


def test_quartic_hessian_and_t_match_the_derivative_formulas():
    # Hess = q_xx q_yy - q_xy^2 and T = q_x Hess_y - q_y Hess_x, written out
    rng = random.Random(23)
    x, y = VarId(0, 0), VarId(0, 1)

    def rational():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 4))

    def ring():
        return RingScalar(*(Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(4)))

    for draw in (rational, ring):
        for _ in range(20):
            q = Quartic.from_coefficients(*(draw() for _ in range(5)))
            p = q.poly()
            px, py = p.differentiate(x), p.differentiate(y)
            hess = px.differentiate(x) * py.differentiate(y) - px.differentiate(y) ** 2
            t_cov = px * hess.differentiate(y) - py * hess.differentiate(x)
            assert _coerced(q.hessian()) == _coerced(hess)
            assert _coerced(q.t_covariant()) == _coerced(t_cov)


def test_graph_case_indices():
    assert graph_case(PairSet.empty(4)) == 1
    assert graph_case(PairSet.of(4, [(0, 1)])) == 2
    assert graph_case(PairSet.of(4, [(0, 1), (1, 2)])) == 3
    assert graph_case(PairSet.of(4, [(0, 1), (2, 3)])) == 4
    assert graph_case(PairSet.of(4, [(0, 1), (1, 2), (0, 2)])) == 5
    assert graph_case(PairSet.of(4, [(0, 1), (1, 2), (2, 3)])) == 6
    assert graph_case(PairSet.of(4, [(0, 1), (0, 2), (0, 3)])) == 7
    assert graph_case(PairSet.of(4, [(0, 1), (0, 2), (0, 3), (1, 2)])) == 8
    assert graph_case(PairSet.of(4, [(0, 1), (1, 2), (2, 3), (0, 3)])) == 9
    assert graph_case(PairSet.of(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])) == 10
    assert graph_case(PairSet.complete(4)) == 11
    counts = {}
    for e in all_pair_sets_4():
        counts[graph_case(e)] = counts.get(graph_case(e), 0) + 1
    assert counts == {1: 1, 2: 6, 3: 12, 4: 3, 5: 4, 6: 12, 7: 4, 8: 12, 9: 3, 10: 6, 11: 1}


def test_ladder_needs_exact_amplitudes():
    s = PureState.floating(4, [0.25] * 16)
    with pytest.raises(ExactBackendRequired):
        covariants4(s)


def test_covariants_zero_on_monomial_state():
    s = PureState.exact(4, [1] + [0] * 15)
    cov = covariants4(s)
    assert all(cov.vanishing().values())


def test_b2200_matches_differentiation_oracle():
    rng = random.Random(11)
    for _ in range(10):
        amps = [RingScalar(rng.randint(-3, 3)) for _ in range(16)]
        if not any(a for a in amps):
            amps[0] = ONE
        s = PureState.exact(4, amps)
        a_form = ladder_ground_form(s)
        tv = transvect(a_form, a_form, (0, 0, 1, 1))
        assert tv == transvect_literal(a_form, a_form, (0, 0, 1, 1))
        # the half-scaled value equals the ladder's own B2200 entry
        half = tv.map_coeffs(lambda c: c / RingScalar(2))
        assert _run_ladder(a_form)["B2200"] == half


def _coerced(p):
    return p.map_coeffs(RingScalar.coerce)


def test_rational_covariants_match_the_ring_scalar_ladder():
    # covariants4 runs the ladder on the RingScalar form; the same ladder on
    # the form mapped to Fraction coefficients is the oracle
    rng = random.Random(41)
    states = [g_abcd_state(1, 2, 3, 4)] + [
        PureState.exact(4, [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(16)])
        for _ in range(2)
    ]
    for s in states:
        cov = covariants4(s)
        assert cov.L_cov
        rational = {k: RingScalar.coerce(c).as_fraction() for k, c in ladder_ground_form(s).terms.items()}
        assert None not in rational.values()
        a = MultiPoly(4, rational)
        frac = _run_ladder(a)

        def total(names):
            return sum((frac[n] for n in names[1:]), frac[names[0]])

        c_cov = transvect(a, frac["B0220"], (0, 1, 1, 0)) + transvect(a, frac["B2002"], (1, 0, 0, 1))
        gbar = frac["G1_3111"] * frac["G1_1311"] * frac["G1_1131"] * frac["G1_1113"]
        expected = {
            "C_cov": c_cov,
            "D_cov": total(["D4000", "D0400", "D0040", "D0004"]),
            "Gbar": gbar,
            "G_cov": total(["G2_3111", "G2_1311", "G2_1131", "G2_1113"]),
            "H_cov": total(["H1_2220", "H1_2202", "H1_2022", "H1_0222"]),
            "K3": total(["K3311", "K3131", "K3113", "K1331", "K1313", "K1133"]),
            "L_cov": total(["L6000", "L0600", "L0060", "L0006"]),
        }
        for name, value in expected.items():
            assert _coerced(getattr(cov, name)) == _coerced(value), name


def test_nonzero_transvectant_example():
    # |0011> + |1100>: (A, A)^(0,0,1,1) = 2 * B2200 is nonzero
    amps = [0] * 16
    amps[0b0011] = 1
    amps[0b1100] = 1
    s = PureState.exact(4, amps)
    a_form = ladder_ground_form(s)
    assert transvect(a_form, a_form, (0, 0, 1, 1)).terms


def test_classify_phi4_examples():
    rng = random.Random(13)
    params = ParamSpec(rand_pairs(rng, 4))
    res = classify_phi4(PairSet.empty(4), params, check_covariants=False)
    assert res.case == 1
    res = classify_phi4(PairSet.of(4, [(0, 1), (2, 3)]), params, check_covariants=False)
    assert res.case == 4 and "EPR" in res.family
    res = classify_phi4(PairSet.complete(4), params)
    assert res.case == 11 and "G_aa00" in res.family
    assert res.confirmations_ok, res.notes


def test_classify_phi4_star_covariants():
    rng = random.Random(19)
    params = ParamSpec(rand_pairs(rng, 4))
    res = classify_phi4(PairSet.of(4, [(0, 1), (0, 2), (0, 3)]), params)
    assert res.case == 7
    assert res.covariant_vanishing["K3"] and res.covariant_vanishing["L"]
    assert res.confirmations_ok, res.notes


def test_symbolic_lmn_vanishes_for_all_graphs():
    for e in all_pair_sets_4():
        inv = invariants4_symbolic(e)
        assert (inv.L * inv.M * inv.N).is_zero()
        assert (inv.N + inv.L + inv.M).is_zero()


def test_symbolic_invariants_match_numeric():
    rng = random.Random(29)
    for e in all_pair_sets_4():
        inv_sym = invariants4_symbolic(e)
        # E = {} has a vanishing biquadratic; D_xy is still a polynomial
        assert isinstance(inv_sym.Dxy, MultiPoly)
        for _ in range(3):
            params = ParamSpec(rand_pairs(rng, 4))
            inv = invariants4(phi_state(e, params))
            assert inv_sym.B.evaluate(params.pairs) == inv.B
            assert inv_sym.L.evaluate(params.pairs) == inv.L
            assert inv_sym.M.evaluate(params.pairs) == inv.M
            assert inv_sym.Dxy.evaluate(params.pairs) == inv.Dxy
