import random
from fractions import Fraction
from itertools import product

import pytest

from czswap.poly import MultiPoly, VarId, differentiate, poly_is_zero, transvect
from czswap.ring import RingScalar
from helpers import transvect_literal

X0 = VarId(0, 0)
X1 = VarId(0, 1)


def var(arity, pair, comp, coeff=1):
    return MultiPoly.variable(arity, pair, comp, coeff)


def rand_poly(rng, arity, nterms=5, max_exp=2):
    p = MultiPoly.zero(arity)
    for _ in range(nterms):
        exps = tuple(rng.randint(0, max_exp) for _ in range(2 * arity))
        p = p + MultiPoly.monomial(arity, exps, Fraction(rng.randint(-5, 5)))
    return p


def rand_multilinear(rng, arity):
    """Random form of degree <= 1 in every variable slot."""
    p = MultiPoly.zero(arity)
    for _ in range(6):
        exps = tuple(rng.randint(0, 1) for _ in range(2 * arity))
        p = p + MultiPoly.monomial(arity, exps, rng.randint(-4, 4))
    return p


def test_differentiate_linearity():
    p = var(2, 0, 0) * var(2, 1, 1)  # x0 * y1
    assert p.differentiate(X0) == var(2, 1, 1)
    assert var(1, 0, 0).differentiate(X1) == MultiPoly.zero(1)


def test_differentiate_power_rule():
    p = var(2, 0, 0) ** 2 * var(2, 1, 0)  # x0^2 * z0
    d = p.differentiate(X0)
    assert d == 2 * (var(2, 0, 0) * var(2, 1, 0))


def test_differentiate_commutes_across_variables():
    rng = random.Random(5)
    for _ in range(30):
        p = rand_poly(rng, 3)
        u, v = VarId(0, 1), VarId(2, 0)
        assert p.differentiate(u).differentiate(v) == p.differentiate(v).differentiate(u)


def test_poly_is_zero():
    assert poly_is_zero(MultiPoly.zero(2))
    p = var(2, 0, 0) - var(2, 0, 0)
    assert poly_is_zero(p)
    assert not poly_is_zero(var(2, 0, 0))


def test_evaluate():
    p = var(2, 0, 0) * var(2, 1, 1) + 3
    assert p.evaluate([(2, 5), (7, 11)]) == 2 * 11 + 3


def test_transvect_order_zero_is_product():
    rng = random.Random(9)
    f = rand_poly(rng, 2, nterms=4)
    g = rand_poly(rng, 2, nterms=4)
    assert transvect(f, g, (0, 0)) == f * g


def test_transvect_single_pair_linear_forms():
    # (a0 x0 + a1 x1, b0 x0 + b1 x1)^(1) = a0 b1 - a1 b0
    a0, a1, b0, b1 = 3, 5, 7, 11
    f = var(1, 0, 0, a0) + var(1, 0, 1, a1)
    g = var(1, 0, 0, b0) + var(1, 0, 1, b1)
    t = transvect(f, g, (1,))
    assert t == MultiPoly.const(1, a0 * b1 - a1 * b0)


def test_transvect_arity_mismatch():
    with pytest.raises(ValueError):
        transvect(MultiPoly.zero(1), MultiPoly.zero(2), (1,))
    with pytest.raises(ValueError):
        transvect(MultiPoly.zero(2), MultiPoly.zero(2), (1,))


def test_transvect_bilinear():
    rng = random.Random(21)
    for _ in range(10):
        f1 = rand_multilinear(rng, 2)
        f2 = rand_multilinear(rng, 2)
        g = rand_multilinear(rng, 2)
        orders = (1, rng.randint(0, 1))
        lhs = transvect(f1 + f2, g, orders)
        rhs = transvect(f1, g, orders) + transvect(f2, g, orders)
        assert lhs == rhs
        lhs = transvect(g, f1 + f2, orders)
        rhs = transvect(g, f1, orders) + transvect(g, f2, orders)
        assert lhs == rhs


def test_transvect_odd_order_antisymmetry_on_multilinear():
    # (f, g) with a single first-order contraction is antisymmetric when both
    # arguments are multilinear.
    rng = random.Random(33)
    for arity in (1, 2, 3, 4):
        orders = (1,) + (0,) * (arity - 1)
        for _ in range(6):
            f = rand_multilinear(rng, arity)
            g = rand_multilinear(rng, arity)
            assert transvect(f, g, orders) == -transvect(g, f, orders)


def test_transvect_against_differentiation_oracle():
    rng = random.Random(55)
    for _ in range(8):
        f = rand_multilinear(rng, 4)
        g = rand_multilinear(rng, 4)
        assert transvect(f, g, (0, 0, 1, 1)) == transvect_literal(f, g, (0, 0, 1, 1))


def rand_squared_poly(rng, arity, coeff):
    """Random polynomial with exponents up to 2, so C(r, i) = 2 weights occur."""
    terms = {}
    for _ in range(5):
        exps = [rng.randint(0, 1) for _ in range(2 * arity)]
        exps[rng.randrange(2 * arity)] = 2
        terms[tuple(exps)] = coeff(rng)
    return MultiPoly(arity, terms)


def int_coeff(rng):
    return rng.choice([-5, -3, -2, -1, 1, 2, 3, 4])


def ring_coeff(rng):
    """A Q(i)[sqrt2] scalar with all four components nonzero."""
    return RingScalar(*(Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3)) for _ in range(4)))


@pytest.mark.parametrize("coeff", [int_coeff, ring_coeff], ids=["int", "ring"])
@pytest.mark.parametrize("arity", [1, 2, 3, 4])
def test_transvect_matches_literal_expansion(arity, coeff):
    # every order vector in {0, 1, 2}^arity, on forms with squared variables
    rng = random.Random(100 + arity)
    for orders in product(range(3), repeat=arity):
        for _ in range(3):
            f = rand_squared_poly(rng, arity, coeff)
            g = rand_squared_poly(rng, arity, coeff)
            assert transvect(f, g, orders) == transvect_literal(f, g, orders), orders
