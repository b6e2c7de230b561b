"""Shared helpers for the test suite."""

from fractions import Fraction

from czswap.group import NormalForm, PairSet, Permutation
from czswap.poly import MultiPoly
from czswap.ring import RingScalar


def rand_nf(rng, k):
    images = list(range(k))
    rng.shuffle(images)
    pairs = [
        (i, j)
        for i in range(k)
        for j in range(i + 1, k)
        if rng.random() < 0.5
    ]
    return NormalForm(PairSet.of(k, pairs), Permutation(k, tuple(images)))


def rand_rational(rng) -> Fraction:
    return Fraction(rng.randint(1, 97), rng.randint(1, 97))


def rand_pairs(rng, k):
    """Random positive-rational parameter pairs, one per qubit."""
    return tuple(
        (RingScalar(rand_rational(rng)), RingScalar(rand_rational(rng)))
        for _ in range(k)
    )


def transvect_literal(f: MultiPoly, g: MultiPoly, orders) -> MultiPoly:
    """Test oracle for ``poly.transvect``: the Cayley operator applied literally.

    f is moved onto pairs 0..p-1 and g onto pairs p..2p-1 of an arity-2p
    ring (the primed and double-primed copies), the two are multiplied out,
    Omega_j = d/dx'_0 d/dx''_1 - d/dx'_1 d/dx''_0 is applied orders[j] times
    by repeated differentiation, and pair p+j is merged back onto pair j.
    """
    p = f.arity
    pad = (0,) * (2 * p)
    wide = MultiPoly(2 * p, {key + pad: c for key, c in f.terms.items()})
    wide = wide * MultiPoly(2 * p, {pad + key: c for key, c in g.terms.items()})
    for j, order in enumerate(orders):
        for _ in range(order):
            left = wide.differentiate((j, 0)).differentiate((p + j, 1))
            right = wide.differentiate((j, 1)).differentiate((p + j, 0))
            wide = left - right
    out = MultiPoly(p)
    for key, c in wide.terms.items():
        merged = tuple(key[i] + key[i + 2 * p] for i in range(2 * p))
        out = out + MultiPoly(p, {merged: c})
    return out
