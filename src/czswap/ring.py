"""Exact scalars of the form (a + b*sqrt2) + i*(c + d*sqrt2) with rational a, b, c, d.

This ring contains every matrix entry produced by products of H, X, Z, c-Z and
SWAP gates, together with the normalisations 1/sqrt(2**k).  Arithmetic is exact
and equality is decidable.

A value is stored as integers (a, b, c, d, den) with den > 0, meaning
(a + b*sqrt2 + i*(c + d*sqrt2)) / den, in lowest terms: one multi-argument gcd
normalises every result, so the form is canonical and zero is (0, 0, 0, 0, 1).
"""

from __future__ import annotations

import math
from fractions import Fraction

_SQRT2 = math.sqrt(2.0)
_ZERO = (0, 0, 0, 0, 1)


def _ring(value):
    """value as a RingScalar, or None for a type the ring does not take."""
    if type(value) is RingScalar:
        return value
    if isinstance(value, (int, Fraction)):
        return RingScalar(value.numerator, 0, 0, 0, value.denominator)
    return None


class RingScalar:
    """An element of Q(i)[sqrt2]: integer numerators a, b, c, d over den > 0."""

    __slots__ = ("_n",)

    def __init__(self, ra=0, rb=0, ia=0, ib=0, den=1):
        """ra..ib are int or Fraction; den (an int) divides all four."""
        try:
            g = math.gcd(ra, rb, ia, ib, den)
        except TypeError:
            parts = (ra, rb, ia, ib)
            if bad := [type(x).__name__ for x in parts if not isinstance(x, (int, Fraction))]:
                raise TypeError(f"expected int or Fraction, got {bad[0]}") from None
            m = math.lcm(*(x.denominator for x in parts))
            ra, rb, ia, ib = (x.numerator * (m // x.denominator) for x in parts)
            den *= m
            g = math.gcd(ra, rb, ia, ib, den)
        if den <= 0:  # a negative den flips every sign; a zero den fails the // below
            g = -g if den else 0
        if g != 1:
            ra, rb, ia, ib, den = ra // g, rb // g, ia // g, ib // g, den // g
        self._n = (ra, rb, ia, ib, den)

    # The rational components a/den, b/den, c/den and d/den.
    ra, rb, ia, ib = (property(lambda self, i=i: Fraction(self._n[i], self._n[4])) for i in range(4))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def coerce(value) -> "RingScalar":
        if (o := _ring(value)) is None:
            raise TypeError(f"cannot coerce {type(value).__name__} into RingScalar")
        return o

    @staticmethod
    def i() -> "RingScalar":
        return RingScalar(0, 0, 1, 0)

    @staticmethod
    def sqrt2() -> "RingScalar":
        return RingScalar(0, 1, 0, 0)

    @staticmethod
    def inv_sqrt2_pow(m: int) -> "RingScalar":
        """Exact 2**(-m/2) for m >= 0 (the 1/sqrt(2**m) normalisation)."""
        if m < 0:
            raise ValueError("m must be non-negative")
        # 2**(-(2h+1)/2) = sqrt2 / 2**(h+1) and 2**(-2h/2) = 1 / 2**h
        half, odd = divmod(m, 2)
        return RingScalar(0, 1, 0, 0, 2 ** (half + 1)) if odd else RingScalar(1, 0, 0, 0, 2 ** half)

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return self._n == _ZERO

    def is_rational(self) -> bool:
        return not any(self._n[1:4])

    def as_fraction(self):
        """The value as a Fraction if it is plain rational, else None."""
        return Fraction(self._n[0], self._n[4]) if self.is_rational() else None

    def conjugate(self) -> "RingScalar":
        """Complex conjugate (sqrt2 is fixed)."""
        a, b, c, d, p = self._n
        return RingScalar(a, b, -c, -d, p)

    def abs2(self) -> "RingScalar":
        """|z|^2 = z * conj(z); always real, i.e. of the form A + B*sqrt2."""
        return self * self.conjugate()

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if (o := other if type(other) is RingScalar else _ring(other)) is None:
            return NotImplemented
        a, b, c, d, p = self._n
        e, f, g, h, q = o._n
        if p == q:
            return RingScalar(a + e, b + f, c + g, d + h, p)
        return RingScalar(a * q + e * p, b * q + f * p, c * q + g * p, d * q + h * p, p * q)

    __radd__ = __add__

    def __sub__(self, other):
        if (o := other if type(other) is RingScalar else _ring(other)) is None:
            return NotImplemented
        a, b, c, d, p = self._n
        e, f, g, h, q = o._n
        if p == q:
            return RingScalar(a - e, b - f, c - g, d - h, p)
        return RingScalar(a * q - e * p, b * q - f * p, c * q - g * p, d * q - h * p, p * q)

    def __rsub__(self, other):
        return NotImplemented if (o := _ring(other)) is None else o - self

    def __neg__(self):
        a, b, c, d, p = self._n
        return RingScalar(-a, -b, -c, -d, p)

    def __mul__(self, other):
        if (o := other if type(other) is RingScalar else _ring(other)) is None:
            return NotImplemented
        a, b, c, d, p = self._n
        e, f, g, h, q = o._n
        if not (b or d or f or h):
            # No sqrt2 part on either side: most values met in practice are
            # plain or Gaussian rationals, so skip the terms known to be zero.
            if not (c or g):
                return RingScalar(a * e, 0, 0, 0, p * q)
            return RingScalar(a * e - c * g, 0, a * g + c * e, 0, p * q)
        # (a+b s + i(c+d s)) (e+f s + i(g+h s)), with s^2 = 2
        return RingScalar(
            a * e + 2 * b * f - c * g - 2 * d * h,
            a * f + b * e - c * h - d * g,
            a * g + 2 * b * h + c * e + 2 * d * f,
            a * h + b * g + c * f + d * e,
            p * q,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        if (o := other if type(other) is RingScalar else _ring(other)) is None:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("division by zero RingScalar")
        # Clear the imaginary part, then the sqrt2 part: o * conj(o) is
        # (A + B*sqrt2) / q, and (A + B*sqrt2)(A - B*sqrt2) the integer norm.
        num = self * o.conjugate()
        A, B, _, _, q = (o * o.conjugate())._n
        a, b, c, d, p = (num * RingScalar(A, -B))._n
        return RingScalar(a * q, b * q, c * q, d * q, p * (A * A - 2 * B * B))

    def __rtruediv__(self, other):
        return NotImplemented if (o := _ring(other)) is None else o / self

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only non-negative integer powers")
        out, base = RingScalar(1), self
        while n:
            if n & 1:
                out = out * base
            base, n = base * base, n >> 1
        return out

    # -- comparisons ---------------------------------------------------------

    def __eq__(self, other):
        if (o := other if type(other) is RingScalar else _ring(other)) is None:
            return NotImplemented
        return self._n == o._n

    def __hash__(self):
        # A rational value hashes as the equal int or Fraction does.
        return hash(self.ra) if self.is_rational() else hash(self._n)

    def __bool__(self):
        return self._n != _ZERO

    # -- conversions -----------------------------------------------------------

    def __complex__(self):
        # a/p is the correctly rounded float of the component, as float(ra) is.
        a, b, c, d, p = self._n
        return complex(a / p + (b / p) * _SQRT2, c / p + (d / p) * _SQRT2)

    def __repr__(self):
        return f"RingScalar({self.ra!r}, {self.rb!r}, {self.ia!r}, {self.ib!r})"

    def __str__(self):
        """Render as 'p/q + r/s*sqrt2 + i*(...)' with vanishing parts omitted."""
        def part(a: Fraction, b: Fraction) -> str:
            bits = ([str(a)] if a else []) + ([f"{b}*sqrt2" if b != 1 else "sqrt2"] if b else [])
            return " + ".join(bits) or "0"

        re, im = part(self.ra, self.rb), part(self.ia, self.ib)
        return re if im == "0" else f"i*({im})" if re == "0" else f"{re} + i*({im})"


ZERO = RingScalar(0)
ONE = RingScalar(1)
INV_SQRT2 = RingScalar.inv_sqrt2_pow(1)
