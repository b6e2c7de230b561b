"""Three-qubit entanglement classification.

Two covariants decide the class of a pure 3-qubit state: the degree-4
invariant ``delta3`` and the catalecticant, a trilinear covariant obtained
from second partials of the ground form.  States with delta3 != 0 carry
GHZ-type entanglement; delta3 = 0 with a nonzero catalecticant is the W
class; both zero is degenerate (factorizing) entanglement.

Exact states are tested with exact zero checks.  Floating states use a
1e-9 zero tolerance scaled by the largest intermediate magnitude.
"""

from __future__ import annotations

import math
from enum import Enum

from .group import PairSet
from .poly import MultiPoly, VarId
from .states import (
    PureState,
    apply_phase_pairs_float,
    apply_single_qubit_float,
    float_plus_state,
    multilinear_form,
    phi_state_symbolic,
)

FLOAT_ZERO_TOL = 1e-9


def _amp(amps, i: int, j: int, k: int):
    """Amplitude of |ijk>: i is qubit 2, j qubit 1, k qubit 0."""
    return amps[(i << 2) | (j << 1) | k]


def _delta3_terms(amps):
    a = lambda i, j, k: _amp(amps, i, j, k)
    square = (
        a(0, 0, 0) * a(1, 1, 1)
        - a(0, 0, 1) * a(1, 1, 0)
        - a(0, 1, 0) * a(1, 0, 1)
        + a(0, 1, 1) * a(1, 0, 0)
    )
    prod = 4 * (
        (a(0, 0, 0) * a(0, 1, 1) - a(0, 0, 1) * a(0, 1, 0))
        * (a(1, 0, 0) * a(1, 1, 1) - a(1, 0, 1) * a(1, 1, 0))
    )
    return square * square, prod


def _best_amps(s: PureState):
    exact = s.exact_amplitudes()
    return exact if exact is not None else s.amps


def delta3(s: PureState):
    """The degree-4 invariant; exact scalar on the exact backend."""
    if s.k != 3:
        raise ValueError(f"delta3 needs a 3-qubit state, got k={s.k}")
    square, prod = _delta3_terms(_best_amps(s))
    return square - prod


def _catalecticant_from_form(a_poly: MultiPoly, x_pair: int, y_pair: int, z_pair: int) -> MultiPoly:
    """det of [[dA/dx0, dA/dx1], [dB/dx0, dB/dx1]] where B is the determinant
    of the 2x2 matrix of mixed second partials of A in the y, z pairs."""
    d2 = {}
    for yc in (0, 1):
        for zc in (0, 1):
            d2[(yc, zc)] = a_poly.differentiate(VarId(y_pair, yc)).differentiate(
                VarId(z_pair, zc)
            )
    b_x = d2[(0, 0)] * d2[(1, 1)] - d2[(0, 1)] * d2[(1, 0)]
    return a_poly.differentiate(VarId(x_pair, 0)) * b_x.differentiate(
        VarId(x_pair, 1)
    ) - a_poly.differentiate(VarId(x_pair, 1)) * b_x.differentiate(VarId(x_pair, 0))


def catalecticant3(s: PureState) -> MultiPoly:
    """The catalecticant covariant of a 3-qubit state, a trilinear form in
    the x, y, z variable pairs; the classifier tests whether it vanishes."""
    if s.k != 3:
        raise ValueError(f"catalecticant3 needs a 3-qubit state, got k={s.k}")
    a_poly = multilinear_form(_best_amps(s), range(3))
    return _catalecticant_from_form(a_poly, x_pair=2, y_pair=1, z_pair=0)


class Class3(Enum):
    GHZ_CLASS = "ghz-class"
    W_CLASS = "w-class"
    DEGENERATE = "degenerate"


def _float_scale(values) -> float:
    return max([1.0, *(abs(complex(v)) for v in values)])


def classify3(s: PureState) -> Class3:
    """Dispatch: delta3 != 0 is GHZ class; delta3 = 0 and catalecticant != 0
    is W class; otherwise degenerate."""
    if s.k != 3:
        raise ValueError(f"classify3 needs a 3-qubit state, got k={s.k}")
    amps = _best_amps(s)
    exact = not any(isinstance(a, complex) for a in amps)
    square, prod = _delta3_terms(amps)
    delta = square - prod
    cat = _catalecticant_from_form(
        multilinear_form(amps, range(3)), x_pair=2, y_pair=1, z_pair=0
    )
    if exact:
        delta_zero = delta == 0
        cat_zero = cat.is_zero()
    else:
        delta_zero = abs(delta) <= FLOAT_ZERO_TOL * _float_scale([square, prod])
        cat_zero = cat.max_coeff_abs() <= FLOAT_ZERO_TOL * _float_scale(
            list(cat.terms.values())
        )
    if not delta_zero:
        return Class3.GHZ_CLASS
    if not cat_zero:
        return Class3.W_CLASS
    return Class3.DEGENERATE


# ---------------------------------------------------------------------------
# Symbolic certificate: no phase-gate product state reaches the W class
# ---------------------------------------------------------------------------


def delta3_symbolic(e: PairSet) -> MultiPoly:
    """delta3 of the parameterized state, as a polynomial in the six
    parameter components (arity 3: pair q = qubit q's parameter pair)."""
    if e.k != 3:
        raise ValueError("needs a 3-qubit pair set")
    amps = phi_state_symbolic(e)
    square, prod = _delta3_terms(amps)
    return square - prod


def catalecticant3_symbolic(e: PairSet) -> MultiPoly:
    """Catalecticant of the parameterized state: a trilinear form in the
    x, y, z variables (arity 3, pair q = qubit q) whose coefficients are
    polynomials in the six parameter components (arity 3, pair q = qubit q's
    parameter pair)."""
    if e.k != 3:
        raise ValueError("needs a 3-qubit pair set")
    a_poly = multilinear_form(phi_state_symbolic(e), range(3))
    return _catalecticant_from_form(a_poly, x_pair=2, y_pair=1, z_pair=0)


def no_w_certificate(e: PairSet) -> bool:
    """Certify symbolically that Z_E on a product state is never W class.

    Strategy: whenever delta3 vanishes the catalecticant must too.  The
    symbolic delta3 of the family is a single monomial divisible by all six
    parameter components (or identically zero), and every monomial of the
    symbolic catalecticant is divisible by all six as well.  Then delta3 = 0
    forces some component to zero, which kills the catalecticant.
    """
    delta = delta3_symbolic(e)
    cat = catalecticant3_symbolic(e)
    if delta.is_zero():
        return cat.is_zero()
    if len(delta.terms) != 1:
        return False
    (delta_key,) = delta.terms
    if not all(exp >= 1 for exp in delta_key):
        return False
    return all(
        all(exp >= 1 for exp in key) for coeff in cat.terms.values() for key in coeff.terms
    )


# ---------------------------------------------------------------------------
# The GHZ-to-W crossing example (floating backend)
# ---------------------------------------------------------------------------


def _mat_mul2(a, b):
    return [
        [a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]],
        [a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]],
    ]


_H = [[2 ** -0.5, 2 ** -0.5], [2 ** -0.5, -(2 ** -0.5)]]
_X = [[0.0, 1.0], [1.0, 0.0]]


def _ry(theta: float):
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return [[c, -s], [s, c]]


def lu_rotated_path_state() -> PureState:
    """The locally rotated path-graph state: Ry(pi/4) H X on qubit 2,
    Ry(pi/4) on qubit 1 and H X on qubit 0 applied to Z_{01} Z_{12} |+++>.
    It sits in the local-unitary orbit of the GHZ state."""
    amps = float_plus_state(3)
    amps = apply_phase_pairs_float(amps, PairSet.of(3, [(0, 1), (1, 2)]))
    u2 = _mat_mul2(_ry(math.pi / 4), _mat_mul2(_H, _X))
    u0 = _mat_mul2(_H, _X)
    amps = apply_single_qubit_float(amps, 2, u2)
    amps = apply_single_qubit_float(amps, 1, _ry(math.pi / 4))
    amps = apply_single_qubit_float(amps, 0, u0)
    return PureState.floating(3, amps)


def crossing_example_state() -> PureState:
    """One extra phase gate on qubits 1, 2 pushes the rotated GHZ-orbit state
    into the W class: its delta3 vanishes while the catalecticant does not."""
    base = lu_rotated_path_state()
    amps = apply_phase_pairs_float(list(base.amps), PairSet.of(3, [(1, 2)]))
    return PureState.floating(3, amps)
