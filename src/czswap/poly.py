"""Sparse multivariate polynomials over pairs of binary variables.

A polynomial of arity p lives in the 2p variables
x(0)_0, x(0)_1, ..., x(p-1)_0, x(p-1)_1.  Term keys are exponent tuples of
length 2p; coefficients may be int, Fraction, RingScalar or complex (any type
with ring arithmetic and a truthiness test for zero).

Besides +, *, formal differentiation and evaluation, the module implements
transvection: the bilinear operation built from the Cayley operator

    Omega_x = d/dx'_0 d/dx''_1 - d/dx'_1 d/dx''_0

applied to f(x')g(x'') and followed by erasing the primes.  It is computed
by the closed per-pair binomial form of Omega^r,

    (f, g)^r = sum_i (-1)^i C(r, i) d^r f/dx_0^(r-i) dx_1^i * d^r g/dx_0^i dx_1^(r-i),

so nothing is multiplied out in the primed variables.
"""

from __future__ import annotations

from itertools import product
from math import comb
from typing import Iterable, NamedTuple


class VarId(NamedTuple):
    pair: int
    comp: int  # 0 or 1


def _slot(arity: int, pair: int, comp: int) -> int:
    if not (0 <= pair < arity):
        raise ValueError(f"pair index {pair} out of range for arity {arity}")
    if comp not in (0, 1):
        raise ValueError(f"component must be 0 or 1, got {comp}")
    return 2 * pair + comp


class MultiPoly:
    __slots__ = ("arity", "terms")

    def __init__(self, arity: int, terms=None):
        self.arity = arity
        self.terms = {}
        if terms:
            for key, coeff in terms.items():
                if coeff:
                    self.terms[key] = coeff

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(arity: int) -> "MultiPoly":
        return MultiPoly(arity)

    @staticmethod
    def const(arity: int, coeff) -> "MultiPoly":
        p = MultiPoly(arity)
        if coeff:
            p.terms[(0,) * (2 * arity)] = coeff
        return p

    @staticmethod
    def variable(arity: int, pair: int, comp: int, coeff=1) -> "MultiPoly":
        key = [0] * (2 * arity)
        key[_slot(arity, pair, comp)] = 1
        return MultiPoly(arity, {tuple(key): coeff})

    @staticmethod
    def monomial(arity: int, exps: Iterable[int], coeff=1) -> "MultiPoly":
        key = tuple(exps)
        if len(key) != 2 * arity:
            raise ValueError("exponent tuple must have length 2*arity")
        return MultiPoly(arity, {key: coeff})

    # -- ring operations -------------------------------------------------------

    def _check(self, other: "MultiPoly"):
        if self.arity != other.arity:
            raise ValueError(f"arity mismatch: {self.arity} vs {other.arity}")

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            return self + MultiPoly.const(self.arity, other)
        self._check(other)
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            acc = out.get(key)
            acc = coeff if acc is None else acc + coeff
            if acc:
                out[key] = acc
            elif key in out:
                del out[key]
        p = MultiPoly(self.arity)
        p.terms = out
        return p

    __radd__ = __add__

    def __neg__(self):
        p = MultiPoly(self.arity)
        p.terms = {k: -c for k, c in self.terms.items()}
        return p

    def __sub__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.const(self.arity, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            if not other:
                return MultiPoly(self.arity)
            p = MultiPoly(self.arity)
            p.terms = {k: c * other for k, c in self.terms.items()}
            return p
        self._check(other)
        out = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(k1, k2))
                c = c1 * c2
                acc = out.get(key)
                acc = c if acc is None else acc + c
                if acc:
                    out[key] = acc
                elif key in out:
                    del out[key]
        p = MultiPoly(self.arity)
        p.terms = out
        return p

    def __rmul__(self, other):
        return self * other

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only non-negative integer powers")
        out = MultiPoly.const(self.arity, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, MultiPoly):
            return self.arity == other.arity and self.terms == other.terms
        if other == 0:
            return not self.terms
        return (self - other).is_zero()

    def __hash__(self):
        return hash((self.arity, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    # -- calculus ------------------------------------------------------------

    def differentiate(self, var) -> "MultiPoly":
        """Formal partial derivative with respect to one binary-variable slot."""
        pair, comp = var
        slot = _slot(self.arity, pair, comp)
        out = {}
        for key, coeff in self.terms.items():
            e = key[slot]
            if e == 0:
                continue
            nk = key[:slot] + (e - 1,) + key[slot + 1:]
            c = coeff if e == 1 else coeff * e
            acc = out.get(nk)
            acc = c if acc is None else acc + c
            if acc:
                out[nk] = acc
            elif nk in out:
                del out[nk]
        p = MultiPoly(self.arity)
        p.terms = out
        return p

    def evaluate(self, pairs):
        """Evaluate at a point given as a sequence of (v0, v1) per pair."""
        if len(pairs) != self.arity:
            raise ValueError("need one value pair per variable pair")
        flat = [v for pair in pairs for v in pair]
        total = 0
        for key, coeff in self.terms.items():
            val = coeff
            for e, v in zip(key, flat):
                if e:
                    val = val * (v ** e if e > 1 else v)
            total = total + val
        return total

    # -- queries --------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def max_coeff_abs(self) -> float:
        return max((abs(complex(c)) for c in self.terms.values()), default=0.0)

    def degree_in(self, var) -> int:
        slot = _slot(self.arity, var[0], var[1])
        return max((k[slot] for k in self.terms), default=0)

    def map_coeffs(self, fn) -> "MultiPoly":
        p = MultiPoly(self.arity)
        p.terms = {k: fn(c) for k, c in self.terms.items() if fn(c)}
        return p

    def __repr__(self):
        if not self.terms:
            return "MultiPoly(0)"
        bits = []
        for key in sorted(self.terms):
            mono = "*".join(
                f"x{s // 2}_{s % 2}" + (f"^{e}" if e > 1 else "")
                for s, e in enumerate(key) if e
            )
            c = self.terms[key]
            bits.append(f"({c})*{mono}" if mono else f"({c})")
        return " + ".join(bits)


def poly_is_zero(p: MultiPoly) -> bool:
    """True iff the polynomial has no stored terms (exact cancellation included)."""
    return not p.terms


def differentiate(p: MultiPoly, var) -> MultiPoly:
    return p.differentiate(var)


def transvect(f: MultiPoly, g: MultiPoly, orders) -> MultiPoly:
    """Transvectant (f, g)^(orders): one Cayley-operator power per variable pair.

    f and g must share arity p and orders must have length p.  Pair j of the
    result contracts order[j] derivatives between f and g; each split of
    those derivatives between the two components of pair j is weighted by
    (-1)^i C(order[j], i).
    """
    if f.arity != g.arity:
        raise ValueError(f"arity mismatch: {f.arity} vs {g.arity}")
    p = f.arity
    orders = tuple(orders)
    if len(orders) != p:
        raise ValueError("need one order per variable pair")
    if any(o < 0 for o in orders):
        raise ValueError("orders must be non-negative")
    out = MultiPoly(p)
    for splits in product(*(range(r + 1) for r in orders)):
        df, dg, weight = f, g, 1
        for j, (r, i) in enumerate(zip(orders, splits)):
            for _ in range(r - i):
                df = df.differentiate((j, 0))
                dg = dg.differentiate((j, 1))
            for _ in range(i):
                df = df.differentiate((j, 1))
                dg = dg.differentiate((j, 0))
            weight *= -comb(r, i) if i % 2 else comb(r, i)
        if df and dg:
            piece = df * dg
            out = out + (piece if weight == 1 else piece * weight)
    return out
