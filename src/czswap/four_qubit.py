"""Four-qubit invariants, quartics, root configurations and covariants.

The classifier rests on three layers:

* the generators of the invariant algebra: B (degree 2), the 4x4 determinants
  L and M (degree 4), N = -L-M, and the degree-6 determinant D_xy;
* three quartics assembled from those invariants, whose root configurations
  are read off five classical covariants (I2, I3, the discriminant, the
  Hessian and T);
* a ladder of transvectants of the ground form, summarised in the seven
  covariants used to pin degenerate families.

Variable order for ground forms here is x, y, z, t = pair 0..3 with x
carrying the leftmost ket label (qubit 3) down to t carrying qubit 0, so
multidegree subscripts read in the usual order.

Everything is exact.  When every amplitude is rational, the ladder runs on
the ground form with Fraction coefficients; otherwise it runs on the
RingScalar coefficients.  Either way the values are the same.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .group import PairSet
from .poly import MultiPoly, VarId, transvect
from .ring import RingScalar
from .states import ParamSpec, PureState, multilinear_form, phi_state, phi_state_symbolic

_HALF = Fraction(1, 2)
_THIRD = Fraction(1, 3)


class ExactBackendRequired(ValueError):
    pass


def _exact_amps(s: PureState):
    amps = s.exact_amplitudes()
    if amps is None:
        raise ExactBackendRequired(
            "this computation needs exact amplitudes; the state only has the float backend"
        )
    return amps


def _amp(amps, i, j, k, l):
    """Amplitude of |ijkl>: i is qubit 3 down to l on qubit 0."""
    return amps[(i << 3) | (j << 2) | (k << 1) | l]


def _det4(m):
    """4x4 determinant by cofactor expansion (exact coefficients)."""
    total = 0
    for col in range(4):
        minor = [[m[r][c] for c in range(4) if c != col] for r in range(1, 4)]
        term = m[0][col] * _det3(minor)
        total = total - term if col % 2 else total + term
    return total


def _det3(a):
    return (
        a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
        - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
        + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0])
    )


def ladder_ground_form(s: PureState) -> MultiPoly:
    """Ground form sum alpha_ijkl x_i y_j z_k t_l with pair order x, y, z, t
    (pair 0 carries qubit 3, ..., pair 3 carries qubit 0)."""
    return multilinear_form(_exact_amps(s), (3, 2, 1, 0))


# ---------------------------------------------------------------------------
# Invariants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Invariants4:
    B: object
    L: object
    M: object
    N: object
    Dxy: object


def _b_invariant(amps):
    total = 0
    for i1 in (0, 1):
        for i2 in (0, 1):
            for i3 in (0, 1):
                term = _amp(amps, 0, i1, i2, i3) * _amp(amps, 1, 1 - i1, 1 - i2, 1 - i3)
                total = total - term if (i1 + i2 + i3) % 2 else total + term
    return total


def _l_matrix(amps):
    a = lambda i, j, k, l: _amp(amps, i, j, k, l)
    return [
        [a(0, 0, 0, 0), a(0, 0, 1, 0), a(0, 0, 0, 1), a(0, 0, 1, 1)],
        [a(1, 0, 0, 0), a(1, 0, 1, 0), a(1, 0, 0, 1), a(1, 0, 1, 1)],
        [a(0, 1, 0, 0), a(0, 1, 1, 0), a(0, 1, 0, 1), a(0, 1, 1, 1)],
        [a(1, 1, 0, 0), a(1, 1, 1, 0), a(1, 1, 0, 1), a(1, 1, 1, 1)],
    ]


def _m_matrix(amps):
    a = lambda i, j, k, l: _amp(amps, i, j, k, l)
    return [
        [a(0, 0, 0, 0), a(0, 0, 0, 1), a(0, 1, 0, 0), a(0, 1, 0, 1)],
        [a(1, 0, 0, 0), a(1, 0, 0, 1), a(1, 1, 0, 0), a(1, 1, 0, 1)],
        [a(0, 0, 1, 0), a(0, 0, 1, 1), a(0, 1, 1, 0), a(0, 1, 1, 1)],
        [a(1, 0, 1, 0), a(1, 0, 1, 1), a(1, 1, 1, 0), a(1, 1, 1, 1)],
    ]


def _n_matrix(amps):
    a = lambda i, j, k, l: _amp(amps, i, j, k, l)
    return [
        [a(0, 0, 0, 0), a(1, 0, 0, 0), a(0, 0, 0, 1), a(1, 0, 0, 1)],
        [a(0, 1, 0, 0), a(1, 1, 0, 0), a(0, 1, 0, 1), a(1, 1, 0, 1)],
        [a(0, 0, 1, 0), a(1, 0, 1, 0), a(0, 0, 1, 1), a(1, 0, 1, 1)],
        [a(0, 1, 1, 0), a(1, 1, 1, 0), a(0, 1, 1, 1), a(1, 1, 1, 1)],
    ]


def _dxy_from_form(a_poly: MultiPoly):
    """D_xy = -det(B_xy): the biquadratic det(d^2 A / dz_i dt_j) is read as
    [x0^2, x0 x1, x1^2] B_xy [y0^2, y0 y1, y1^2]^T."""
    d2 = {}
    for zc in (0, 1):
        for tc in (0, 1):
            d2[(zc, tc)] = a_poly.differentiate(VarId(2, zc)).differentiate(VarId(3, tc))
    biquad = d2[(0, 0)] * d2[(1, 1)] - d2[(0, 1)] * d2[(1, 0)]
    rows = {(2, 0): 0, (1, 1): 1, (0, 2): 2}
    bxy = [[0] * 3 for _ in range(3)]
    for key, coeff in biquad.terms.items():
        r = rows[(key[0], key[1])]
        c = rows[(key[2], key[3])]
        bxy[r][c] = coeff
    return -_det3(bxy)


def invariants4(s: PureState) -> Invariants4:
    """The generators B, L, M (and N = -L-M) plus D_xy, all exact."""
    if s.k != 4:
        raise ValueError(f"needs a 4-qubit state, got k={s.k}")
    amps = _exact_amps(s)
    b = _b_invariant(amps)
    l = _det4(_l_matrix(amps))
    m = _det4(_m_matrix(amps))
    dxy = _dxy_from_form(ladder_ground_form(s))
    return Invariants4(B=b, L=l, M=m, N=-l - m, Dxy=dxy)


def n_determinant(s: PureState):
    """The determinant expression for N, used to cross-check N = -L-M."""
    return _det4(_n_matrix(_exact_amps(s)))


# ---------------------------------------------------------------------------
# Quartics and root configurations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Quartic:
    """Binary quartic alpha x^4 - 4 beta x^3 y + 6 gamma x^2 y^2
    - 4 delta x y^3 + omega y^4."""

    alpha: object
    beta: object
    gamma: object
    delta: object
    omega: object

    @staticmethod
    def from_coefficients(c4, c3, c2, c1, c0) -> "Quartic":
        """From plain coefficients of x^4, x^3 y, ..., y^4."""
        return Quartic(c4, _div(c3, -4), _div(c2, 6), _div(c1, -4), c0)

    def coefficients(self):
        """Plain coefficients of x^4, x^3 y, x^2 y^2, x y^3, y^4."""
        return (
            self.alpha,
            -4 * self.beta,
            6 * self.gamma,
            -4 * self.delta,
            self.omega,
        )

    def poly(self) -> MultiPoly:
        """As a polynomial in one variable pair (x, y)."""
        out = MultiPoly.zero(1)
        for i, c in enumerate(self.coefficients()):
            if c:
                out = out + MultiPoly.monomial(1, (4 - i, i), c)
        return out

    def evaluate(self, x, y):
        c4, c3, c2, c1, c0 = self.coefficients()
        return c4 * x ** 4 + c3 * x ** 3 * y + c2 * x ** 2 * y ** 2 + c1 * x * y ** 3 + c0 * y ** 4

    def is_zero(self) -> bool:
        return not any(self.coefficients())

    def i2(self):
        return self.alpha * self.omega - 4 * self.beta * self.delta + 3 * self.gamma ** 2

    def i3(self):
        return (
            self.alpha * self.gamma * self.omega
            - self.alpha * self.delta ** 2
            - self.omega * self.beta ** 2
            - self.gamma ** 3
            + 2 * self.beta * self.gamma * self.delta
        )

    def discriminant(self):
        return self.i2() ** 3 - 27 * self.i3() ** 2

    def hessian(self) -> MultiPoly:
        """q_xx q_yy - q_xy^2, which is half the transvectant (q, q)^2."""
        q = self.poly()
        return transvect(q, q, (2,)) * _HALF

    def t_covariant(self) -> MultiPoly:
        """q_x H_y - q_y H_x, the transvectant (q, H)^1."""
        return transvect(self.poly(), self.hessian(), (1,))


def _div(value, n: int):
    if isinstance(value, RingScalar):
        return value / RingScalar(n)
    if isinstance(value, complex):
        return value / n
    return Fraction(value) / n if isinstance(value, int) else value / n


class RootConfig(Enum):
    FOUR_DISTINCT = "four distinct roots"
    ONE_DOUBLE = "exactly one double root"
    TWO_DOUBLES = "two distinct double roots"
    TRIPLE = "a triple root"
    QUADRUPLE = "a quadruple root"


def root_config(q: Quartic) -> RootConfig:
    """Dispatch on the vanishing pattern of the quartic's covariants.

    disc != 0 means four distinct roots; I2 = I3 = 0 separates root
    multiplicity >= 3 (triple when the Hessian survives, quadruple when it
    vanishes identically) and must be tested before the T row, because a
    triple root also satisfies disc = 0 with T != 0; the remaining split is
    T != 0 for exactly one double root versus two distinct double roots
    (there I2 != 0 automatically, since I2 = 0 with disc = 0 forces I3 = 0).
    Hess and T vanish as identically-zero covariant polynomials.
    """
    if q.is_zero():
        raise ValueError("the zero quartic has no root configuration")
    if q.discriminant() != 0:
        return RootConfig.FOUR_DISTINCT
    if q.i2() == 0 and q.i3() == 0:
        if not q.hessian().is_zero():
            return RootConfig.TRIPLE
        return RootConfig.QUADRUPLE
    if not q.t_covariant().is_zero():
        return RootConfig.ONE_DOUBLE
    return RootConfig.TWO_DOUBLES


def quartics(s: PureState) -> tuple[Quartic, Quartic, Quartic]:
    """The three quartics built from the invariants; they share I2, I3 and
    the discriminant."""
    if s.k != 4:
        raise ValueError(f"needs a 4-qubit state, got k={s.k}")
    inv = invariants4(s)
    return quartics_from_invariants(inv)


def quartics_from_invariants(inv: Invariants4) -> tuple[Quartic, Quartic, Quartic]:
    b, l, m, n, dxy = inv.B, inv.L, inv.M, inv.N, inv.Dxy
    one = _one_like(b)
    q1 = Quartic.from_coefficients(
        one,
        -2 * b,
        b * b + 2 * l + 4 * m,
        4 * dxy - 4 * b * m - 2 * b * l,
        l * l,
    )
    q2 = Quartic.from_coefficients(
        one,
        -2 * b,
        b * b - 4 * l - 2 * m,
        4 * dxy - 2 * m * b,
        m * m,
    )
    q3 = Quartic.from_coefficients(
        one,
        -2 * b,
        b * b + 2 * l - 2 * m,
        4 * dxy - 2 * (l + m) * b,
        n * n,
    )
    return q1, q2, q3


def _one_like(value):
    if isinstance(value, RingScalar):
        return RingScalar(1)
    if isinstance(value, complex):
        return 1.0 + 0j
    return Fraction(1)


# ---------------------------------------------------------------------------
# The transvectant ladder
# ---------------------------------------------------------------------------


# Each ladder entry: name -> (multiplier, [(sign, left, right, orders), ...]).
# Orders are per variable pair (x, y, z, t).
_LADDER: list[tuple[str, Fraction, list[tuple[int, str, str, tuple[int, int, int, int]]]]] = [
    ("B2200", _HALF, [(1, "A", "A", (0, 0, 1, 1))]),
    ("B2020", _HALF, [(1, "A", "A", (0, 1, 0, 1))]),
    ("B2002", _HALF, [(1, "A", "A", (0, 1, 1, 0))]),
    ("B0220", _HALF, [(1, "A", "A", (1, 0, 0, 1))]),
    ("B0202", _HALF, [(1, "A", "A", (1, 0, 1, 0))]),
    ("B0022", _HALF, [(1, "A", "A", (1, 1, 0, 0))]),
    ("C1_1111", Fraction(1), [(1, "A", "B2200", (1, 1, 0, 0)), (1, "A", "B0022", (0, 0, 1, 1))]),
    ("C3111", _THIRD, [
        (1, "A", "B2200", (0, 1, 0, 0)),
        (1, "A", "B2020", (0, 0, 1, 0)),
        (1, "A", "B2002", (0, 0, 0, 1)),
    ]),
    ("C1311", _THIRD, [
        (1, "A", "B2200", (1, 0, 0, 0)),
        (1, "A", "B0220", (0, 0, 1, 0)),
        (1, "A", "B0202", (0, 0, 0, 1)),
    ]),
    ("C1131", _THIRD, [
        (1, "A", "B2020", (1, 0, 0, 0)),
        (1, "A", "B0220", (0, 1, 0, 0)),
        (1, "A", "B0022", (0, 0, 0, 1)),
    ]),
    ("C1113", _THIRD, [
        (1, "A", "B2002", (1, 0, 0, 0)),
        (1, "A", "B0202", (0, 1, 0, 0)),
        (1, "A", "B0022", (0, 0, 1, 0)),
    ]),
    ("D2200", Fraction(1), [(1, "A", "C1_1111", (0, 0, 1, 1))]),
    ("D2020", Fraction(1), [(1, "A", "C1_1111", (0, 1, 0, 1))]),
    ("D2002", Fraction(1), [(1, "A", "C1_1111", (0, 1, 1, 0))]),
    ("D0220", Fraction(1), [(1, "A", "C1_1111", (1, 0, 0, 1))]),
    ("D0202", Fraction(1), [(1, "A", "C1_1111", (1, 0, 1, 0))]),
    ("D0022", Fraction(1), [(1, "A", "C1_1111", (1, 1, 0, 0))]),
    ("D4000", Fraction(1), [(1, "A", "C3111", (0, 1, 1, 1))]),
    ("D0400", Fraction(1), [(1, "A", "C1311", (1, 0, 1, 1))]),
    ("D0040", Fraction(1), [(1, "A", "C1131", (1, 1, 0, 1))]),
    ("D0004", Fraction(1), [(1, "A", "C1113", (1, 1, 1, 0))]),
    ("E1_3111", Fraction(1), [
        (1, "A", "D2200", (0, 1, 0, 0)),
        (1, "A", "D2020", (0, 0, 1, 0)),
        (1, "A", "D2002", (0, 0, 0, 1)),
    ]),
    ("E1_1311", Fraction(1), [
        (1, "A", "D2200", (1, 0, 0, 0)),
        (1, "A", "D0220", (0, 0, 1, 0)),
        (1, "A", "D0202", (0, 0, 0, 1)),
    ]),
    ("E1_1131", Fraction(1), [
        (1, "A", "D2020", (1, 0, 0, 0)),
        (1, "A", "D0220", (0, 1, 0, 0)),
        (1, "A", "D0022", (0, 0, 0, 1)),
    ]),
    ("E1_1113", Fraction(1), [
        (1, "A", "D2002", (1, 0, 0, 0)),
        (1, "A", "D0202", (0, 1, 0, 0)),
        (1, "A", "D0022", (0, 0, 1, 0)),
    ]),
    ("F4200", Fraction(1), [(1, "A", "E1_3111", (0, 0, 1, 1))]),
    ("F4020", Fraction(1), [(1, "A", "E1_3111", (0, 1, 0, 1))]),
    ("F4002", Fraction(1), [(1, "A", "E1_3111", (0, 1, 1, 0))]),
    ("F0420", Fraction(1), [(1, "A", "E1_1311", (1, 0, 0, 1))]),
    ("F0402", Fraction(1), [(1, "A", "E1_1311", (1, 0, 1, 0))]),
    ("F0042", Fraction(1), [(1, "A", "E1_1131", (1, 1, 0, 0))]),
    ("F2400", Fraction(1), [(1, "A", "E1_1311", (0, 0, 1, 1))]),
    ("F2040", Fraction(1), [(1, "A", "E1_1131", (0, 1, 0, 1))]),
    ("F2004", Fraction(1), [(1, "A", "E1_1113", (0, 1, 1, 0))]),
    ("F0240", Fraction(1), [(1, "A", "E1_1131", (1, 0, 0, 1))]),
    ("F0204", Fraction(1), [(1, "A", "E1_1113", (1, 0, 1, 0))]),
    ("F0024", Fraction(1), [(1, "A", "E1_1113", (1, 1, 0, 0))]),
    ("G1_3111", Fraction(1), [(1, "A", "F4200", (1, 1, 0, 0))]),
    ("G2_3111", Fraction(1), [(1, "A", "F4020", (1, 0, 1, 0))]),
    ("G1_1311", Fraction(1), [(1, "A", "F2400", (1, 1, 0, 0))]),
    ("G2_1311", Fraction(1), [(1, "A", "F0420", (0, 1, 1, 0))]),
    ("G1_1131", Fraction(1), [(1, "A", "F2040", (1, 0, 1, 0))]),
    ("G2_1131", Fraction(1), [(1, "A", "F0240", (0, 1, 1, 0))]),
    ("G1_1113", Fraction(1), [(1, "A", "F2004", (1, 0, 0, 1))]),
    ("G2_1113", Fraction(1), [(1, "A", "F0204", (0, 1, 0, 1))]),
    ("G5111", Fraction(1), [
        (1, "A", "F4002", (0, 0, 0, 1)),
        (1, "A", "F4020", (0, 0, 1, 0)),
        (1, "A", "F4200", (0, 1, 0, 0)),
    ]),
    ("G1511", Fraction(1), [
        (1, "A", "F0402", (0, 0, 0, 1)),
        (1, "A", "F0420", (0, 0, 1, 0)),
        (1, "A", "F2400", (1, 0, 0, 0)),
    ]),
    ("G1151", Fraction(1), [
        (1, "A", "F0042", (0, 0, 0, 1)),
        (1, "A", "F0240", (0, 1, 0, 0)),
        (1, "A", "F2040", (1, 0, 0, 0)),
    ]),
    ("G1115", Fraction(1), [
        (1, "A", "F0204", (0, 1, 0, 0)),
        (1, "A", "F0024", (0, 0, 1, 0)),
        (1, "A", "F2004", (1, 0, 0, 0)),
    ]),
    ("H4200", Fraction(1), [(1, "A", "G5111", (1, 0, 1, 1))]),
    ("H4020", Fraction(1), [(1, "A", "G5111", (1, 1, 0, 1))]),
    ("H4002", Fraction(1), [(1, "A", "G5111", (1, 1, 1, 0))]),
    ("H0420", Fraction(1), [(1, "A", "G1511", (1, 1, 0, 1))]),
    ("H0402", Fraction(1), [(1, "A", "G1511", (1, 1, 1, 0))]),
    ("H0042", Fraction(1), [(1, "A", "G1151", (1, 1, 1, 0))]),
    ("H2400", Fraction(1), [(1, "A", "G1511", (0, 1, 1, 1))]),
    ("H2040", Fraction(1), [(1, "A", "G1151", (0, 1, 1, 1))]),
    ("H2004", Fraction(1), [(1, "A", "G1115", (0, 1, 1, 1))]),
    ("H0240", Fraction(1), [(1, "A", "G1151", (1, 0, 1, 1))]),
    ("H0204", Fraction(1), [(1, "A", "G1115", (1, 0, 1, 1))]),
    ("H0024", Fraction(1), [(1, "A", "G1115", (1, 1, 0, 1))]),
    ("H1_2220", Fraction(1), [
        (1, "A", "G1_1311", (0, 1, 0, 1)),
        (1, "A", "G1_3111", (1, 0, 0, 1)),
        (1, "A", "G1_1131", (0, 0, 1, 1)),
    ]),
    ("H1_2202", Fraction(1), [
        (1, "A", "G1_1311", (0, 1, 1, 0)),
        (1, "A", "G1_3111", (1, 0, 1, 0)),
        (1, "A", "G1_1113", (0, 0, 1, 1)),
    ]),
    ("H1_2022", Fraction(1), [
        (1, "A", "G1_3111", (1, 1, 0, 0)),
        (1, "A", "G1_1131", (0, 1, 1, 0)),
        (1, "A", "G1_1113", (0, 1, 0, 1)),
    ]),
    ("H1_0222", Fraction(1), [
        (1, "A", "G1_1311", (1, 1, 0, 0)),
        (1, "A", "G1_1131", (1, 0, 1, 0)),
        (1, "A", "G1_1113", (1, 0, 0, 1)),
    ]),
    ("I1_5111", Fraction(1), [
        (1, "A", "H4020", (0, 0, 1, 0)),
        (1, "A", "H4200", (0, 1, 0, 0)),
        (1, "A", "H4002", (0, 0, 0, 1)),
    ]),
    ("I1_1511", Fraction(1), [
        (1, "A", "H0420", (0, 0, 1, 0)),
        (1, "A", "H2400", (1, 0, 0, 0)),
        (1, "A", "H0402", (0, 0, 0, 1)),
    ]),
    ("I1_1151", Fraction(1), [
        (1, "A", "H0240", (0, 1, 0, 0)),
        (1, "A", "H2040", (1, 0, 0, 0)),
        (1, "A", "H0042", (0, 0, 0, 1)),
    ]),
    ("I1_1115", Fraction(1), [
        (1, "A", "H0204", (0, 1, 0, 0)),
        (1, "A", "H2004", (1, 0, 0, 0)),
        (1, "A", "H0024", (0, 0, 1, 0)),
    ]),
    ("J4200", Fraction(1), [(1, "A", "I1_5111", (1, 0, 1, 1))]),
    ("J4020", Fraction(1), [(1, "A", "I1_5111", (1, 1, 0, 1))]),
    ("J4002", Fraction(1), [(1, "A", "I1_5111", (1, 1, 1, 0))]),
    ("J0420", Fraction(1), [(1, "A", "I1_1511", (1, 1, 0, 1))]),
    ("J0402", Fraction(1), [(1, "A", "I1_1511", (1, 1, 1, 0))]),
    ("J0042", Fraction(1), [(1, "A", "I1_1151", (1, 1, 1, 0))]),
    ("J2400", Fraction(1), [(1, "A", "I1_1511", (0, 1, 1, 1))]),
    ("J2040", Fraction(1), [(1, "A", "I1_1151", (0, 1, 1, 1))]),
    ("J2004", Fraction(1), [(1, "A", "I1_1115", (0, 1, 1, 1))]),
    ("J0240", Fraction(1), [(1, "A", "I1_1151", (1, 0, 1, 1))]),
    ("J0204", Fraction(1), [(1, "A", "I1_1115", (1, 0, 1, 1))]),
    ("J0024", Fraction(1), [(1, "A", "I1_1115", (1, 1, 0, 1))]),
    ("K3311", Fraction(1), [(1, "A", "J4200", (1, 0, 0, 0)), (-1, "A", "J2400", (0, 1, 0, 0))]),
    ("K3131", Fraction(1), [(1, "A", "J4020", (1, 0, 0, 0)), (-1, "A", "J2040", (0, 0, 1, 0))]),
    ("K3113", Fraction(1), [(1, "A", "J4002", (1, 0, 0, 0)), (-1, "A", "J2004", (0, 0, 0, 1))]),
    ("K1331", Fraction(1), [(1, "A", "J0420", (0, 1, 0, 0)), (-1, "A", "J0240", (0, 0, 1, 0))]),
    ("K1313", Fraction(1), [(1, "A", "J0402", (0, 1, 0, 0)), (-1, "A", "J0204", (0, 0, 0, 1))]),
    ("K1133", Fraction(1), [(1, "A", "J0042", (0, 0, 1, 0)), (-1, "A", "J0024", (0, 0, 0, 1))]),
    ("K5111", Fraction(1), [
        (1, "A", "J4200", (0, 1, 0, 0)),
        (-1, "A", "J4020", (0, 0, 1, 0)),
        (1, "A", "J4002", (0, 0, 0, 1)),
    ]),
    ("K1511", Fraction(1), [
        (1, "A", "J2400", (1, 0, 0, 0)),
        (-1, "A", "J0420", (0, 0, 1, 0)),
        (1, "A", "J0402", (0, 0, 0, 1)),
    ]),
    ("K1151", Fraction(1), [
        (1, "A", "J2040", (1, 0, 0, 0)),
        (-1, "A", "J0240", (0, 1, 0, 0)),
        (1, "A", "J0042", (0, 0, 0, 1)),
    ]),
    ("K1115", Fraction(1), [
        (1, "A", "J2004", (1, 0, 0, 0)),
        (-1, "A", "J0204", (0, 1, 0, 0)),
        (1, "A", "J0024", (0, 0, 1, 0)),
    ]),
    ("L6000", Fraction(1), [(1, "A", "K5111", (0, 1, 1, 1))]),
    ("L0600", Fraction(1), [(1, "A", "K1511", (1, 0, 1, 1))]),
    ("L0060", Fraction(1), [(1, "A", "K1151", (1, 1, 0, 1))]),
    ("L0006", Fraction(1), [(1, "A", "K1115", (1, 1, 1, 0))]),
]


@dataclass(frozen=True)
class Covariants4:
    """Summary covariants from the ladder, as exact polynomials."""

    C_cov: MultiPoly
    D_cov: MultiPoly
    Gbar: MultiPoly
    G_cov: MultiPoly
    H_cov: MultiPoly
    K3: MultiPoly
    L_cov: MultiPoly

    def vanishing(self) -> dict[str, bool]:
        return {
            "C": self.C_cov.is_zero(),
            "D": self.D_cov.is_zero(),
            "Gbar": self.Gbar.is_zero(),
            "G": self.G_cov.is_zero(),
            "H": self.H_cov.is_zero(),
            "K3": self.K3.is_zero(),
            "L": self.L_cov.is_zero(),
        }


def _run_ladder(a: MultiPoly) -> dict[str, MultiPoly]:
    values = {"A": a}
    for name, multiplier, terms in _LADDER:
        acc = MultiPoly(4)
        for sign, left, right, orders in terms:
            piece = transvect(values[left], values[right], orders)
            acc = acc + piece if sign > 0 else acc - piece
        values[name] = acc * multiplier if multiplier != 1 else acc
    return values


def _sum_named(values, names) -> MultiPoly:
    return sum((values[name] for name in names[1:]), values[names[0]])


def covariants4(s: PureState) -> Covariants4:
    """Run the exact transvectant ladder and assemble the seven summary
    covariants used by the classifier.

    The degree-3 covariant here pairs the (y,z) and (x,t) contractions:
    (A, B0220)^0110 + (A, B2002)^1001 (the version with B2200 in the first
    slot would contract a variable of degree zero and vanish identically).
    """
    if s.k != 4:
        raise ValueError(f"needs a 4-qubit state, got k={s.k}")
    a = ladder_ground_form(s)
    rational = {key: RingScalar.coerce(c).as_fraction() for key, c in a.terms.items()}
    if None not in rational.values():
        a = MultiPoly(4, rational)
    values = _run_ladder(a)
    c_cov = transvect(a, values["B0220"], (0, 1, 1, 0)) + transvect(a, values["B2002"], (1, 0, 0, 1))
    return Covariants4(
        C_cov=c_cov,
        D_cov=_sum_named(values, ["D4000", "D0400", "D0040", "D0004"]),
        Gbar=values["G1_3111"] * values["G1_1311"] * values["G1_1131"] * values["G1_1113"],
        G_cov=_sum_named(values, ["G2_3111", "G2_1311", "G2_1131", "G2_1113"]),
        H_cov=_sum_named(values, ["H1_2220", "H1_2202", "H1_2022", "H1_0222"]),
        K3=_sum_named(values, ["K3311", "K3131", "K3113", "K1331", "K1313", "K1133"]),
        L_cov=_sum_named(values, ["L6000", "L0600", "L0060", "L0006"]),
    )


# ---------------------------------------------------------------------------
# Classification of the 64 phase-graph product states
# ---------------------------------------------------------------------------


_CASE_FAMILY = {
    1: "completely factorized",
    2: "EPR pair on the edge times two free qubits",
    3: "GHZ-type triple times a free qubit",
    4: "two EPR pairs; orbit of G_a000",
    5: "GHZ-type triple times a free qubit",
    6: "orbit of a degenerate G_abcd (G_ab00)",
    7: "orbit of G_aa00",
    8: "orbit of G_ab00 (L = 0 variety)",
    9: "orbit of G_ab00 (L = 0 variety)",
    10: "orbit of G_ab00",
    11: "orbit of G_aa00",
}

_CASE_ROOTS = {
    1: (RootConfig.QUADRUPLE,) * 3,
    2: (RootConfig.QUADRUPLE,) * 3,
    3: (RootConfig.QUADRUPLE,) * 3,
    4: (RootConfig.TRIPLE, RootConfig.QUADRUPLE, RootConfig.QUADRUPLE),
    5: (RootConfig.QUADRUPLE,) * 3,
    6: (RootConfig.ONE_DOUBLE, RootConfig.TWO_DOUBLES, RootConfig.TWO_DOUBLES),
    7: (RootConfig.TWO_DOUBLES,) * 3,
    8: (RootConfig.ONE_DOUBLE, RootConfig.TWO_DOUBLES, RootConfig.TWO_DOUBLES),
    9: (RootConfig.ONE_DOUBLE, RootConfig.TWO_DOUBLES, RootConfig.TWO_DOUBLES),
    10: (RootConfig.ONE_DOUBLE, RootConfig.TWO_DOUBLES, RootConfig.TWO_DOUBLES),
    11: (RootConfig.TWO_DOUBLES,) * 3,
}

# covariants expected to vanish, by case
_CASE_VANISHING = {
    6: ("K3", "L"),
    7: ("K3", "L"),
    8: ("K3", "L"),
    9: ("K3", "L"),
    10: ("K3", "L"),
    11: ("Gbar", "G", "H", "L"),
}


def graph_case(e: PairSet) -> int:
    """The 1..11 case index of a 4-vertex edge set, by isomorphism type."""
    if e.k != 4:
        raise ValueError("needs a 4-qubit pair set")
    edges = sorted(e.pairs)
    m = len(edges)
    degree = [0, 0, 0, 0]
    for i, j in edges:
        degree[i] += 1
        degree[j] += 1
    if m == 0:
        return 1
    if m == 1:
        return 2
    if m == 2:
        return 3 if max(degree) == 2 else 4
    if m == 3:
        if max(degree) == 3:
            return 7
        covered = sum(1 for d in degree if d)
        return 5 if covered == 3 else 6
    if m == 4:
        return 9 if max(degree) == 2 else 8
    if m == 5:
        return 10
    return 11


@dataclass(frozen=True)
class Phi4Classification:
    case: int
    family: str
    invariants: Invariants4
    root_configs: tuple[RootConfig, RootConfig, RootConfig]
    covariant_vanishing: dict | None
    confirmations_ok: bool
    notes: tuple[str, ...]


def classify_phi4(e: PairSet, params: ParamSpec, check_covariants: bool = True) -> Phi4Classification:
    """Classify Z_E on a 4-qubit product state.

    The decision is the isomorphism type of E as a 4-vertex graph; the
    quartic root configurations and the case's covariant vanishings are then
    computed as confirmations.  A confirmation mismatch (possible at special
    parameter values) is reported in the notes, never silently re-classified.
    """
    case = graph_case(e)
    state = phi_state(e, params)
    inv = invariants4(state)
    qs = quartics_from_invariants(inv)
    configs = tuple(root_config(q) for q in qs)
    notes = []
    expected = _CASE_ROOTS[case]
    if tuple(sorted(c.value for c in configs)) != tuple(sorted(c.value for c in expected)):
        notes.append(
            f"root configurations {[c.value for c in configs]} differ from the "
            f"generic pattern {[c.value for c in expected]} for case {case}"
        )
    vanishing = None
    if check_covariants and case in _CASE_VANISHING:
        cov = covariants4(state)
        vanishing = cov.vanishing()
        for name in _CASE_VANISHING[case]:
            if not vanishing[name]:
                notes.append(f"covariant {name} expected to vanish in case {case} but did not")
    if inv.L * inv.M * inv.N != 0:
        notes.append("LMN unexpectedly nonzero")
    return Phi4Classification(
        case=case,
        family=_CASE_FAMILY[case],
        invariants=inv,
        root_configs=configs,
        covariant_vanishing=vanishing,
        confirmations_ok=not notes,
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# Symbolic mode: parameters as indeterminates
# ---------------------------------------------------------------------------


def invariants4_symbolic(e: PairSet) -> Invariants4:
    """B, L, M, N and D_xy of the parameterized family as polynomials in the
    eight parameter components (arity 4, pair q = qubit q's pair)."""
    if e.k != 4:
        raise ValueError("needs a 4-qubit pair set")
    amps = phi_state_symbolic(e)
    b = _b_invariant(amps)
    l = _det4(_l_matrix(amps))
    m = _det4(_m_matrix(amps))
    # D_xy of the form whose coefficients are the amplitude polynomials; the
    # zero polynomial is added because for E = {} the biquadratic vanishes
    # and _dxy_from_form returns a plain 0
    dxy = MultiPoly.zero(4) + _dxy_from_form(multilinear_form(amps, (3, 2, 1, 0)))
    return Invariants4(B=b, L=l, M=m, N=-l - m, Dxy=dxy)
