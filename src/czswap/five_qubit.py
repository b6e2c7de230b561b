"""Five-qubit hyperdeterminant-nullity witnesses from the tabulated solutions.

For 31 of the 34 edge classes on five qubits (892 of the 1024 edge sets),
the phase-graph product state has a vanishing hyperdeterminant, witnessed
by a nontrivial common zero of its ground form and first partials.  The
other three classes, listed in GENERICALLY_NONSINGULAR, have no such zero at
generic parameters: their hyperdeterminant does not vanish.  Up to vertex
relabeling each class carries one tabulated solution, given for a
representative edge set with all second components equal to 1 and the first
components rational (or Gaussian-rational) functions of the qubit
parameters a..e.

Solutions are verified, never trusted: each lookup evaluates the row,
transports it back through the relabeling and runs the exact system check.
A failing row is reported and a fallback is searched: first a curated
corrected row where one is known, then a structural solution for
disconnected graphs (zeroing two factors of the state's tensor split).

Notation: qubit q's parameter pair is (a..e)[q], and the solution component
order [x0, y0, z0, t0, s0] also follows qubits 0..4.  The triple sums used
by some rows are T1..T6 with sign patterns over the parameters of qubits
0, 1, 2 (written a, b, c); T6 has the sign pattern of T4, so ``tri4``
evaluates both.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Callable, NamedTuple

from .group import PairSet, Permutation
from .hyperdet import SystemSolution, hyperdet_system_check
from .ring import ONE, ZERO, RingScalar
from .states import ParamSpec, phi_state

I = RingScalar.i()


class TableDenominatorError(ZeroDivisionError):
    def __init__(self, class_index: int, formula: str):
        super().__init__(
            f"zero denominator evaluating tabulated row {class_index}: {formula}"
        )
        self.class_index = class_index


class P(NamedTuple):
    """Parameter components of the five qubits, in qubit order."""

    a0: RingScalar
    a1: RingScalar
    b0: RingScalar
    b1: RingScalar
    c0: RingScalar
    c1: RingScalar
    d0: RingScalar
    d1: RingScalar
    e0: RingScalar
    e1: RingScalar


def _components(params) -> P:
    return P(*(comp for pair in params for comp in pair))


def _tri(params, signs: Callable[[int, int, int], int]) -> RingScalar:
    """sum_{i,j,k} (-1)^signs(i,j,k) a_i b_j c_k over qubits 0, 1, 2."""
    total = ZERO
    for i in (0, 1):
        for j in (0, 1):
            for k in (0, 1):
                term = params[0][i] * params[1][j] * params[2][k]
                total = total - term if signs(i, j, k) % 2 else total + term
    return total


def tri1(params):
    return _tri(params, lambda i, j, k: j * (i + 1) + i * k)


def tri2(params):
    return _tri(params, lambda i, j, k: i * (j + k))


def tri3(params):
    return _tri(params, lambda i, j, k: k * (1 + j) + i * j)


def tri4(params):
    return _tri(params, lambda i, j, k: j * (i + k))


def tri5(params):
    return _tri(params, lambda i, j, k: k + j * (k + i))


@dataclass(frozen=True)
class TableRow:
    index: int  # 1-based row number across the three tables
    shape: str
    representative: tuple[tuple[int, int], ...]
    cardinal: int
    formula: str
    solution: Callable | None  # params -> [x0, y0, z0, t0, s0]; None if malformed


def _k5_minus(pairs):
    full = {(i, j) for i in range(5) for j in range(i + 1, 5)}
    return tuple(sorted(full - set(pairs)))


_TABLE: list[TableRow] = [
    TableRow(1, "{}", (), 1, "[1, -b1/b0, -c1/c0, 1, 1]",
             lambda p, P: [ONE, -P.b1 / P.b0, -P.c1 / P.c0, ONE, ONE]),
    TableRow(2, "{{i,j}}", ((0, 1),), 10, "[1, 1, 1, -d1/d0, -e1/e0]",
             lambda p, P: [ONE, ONE, ONE, -P.d1 / P.d0, -P.e1 / P.e0]),
    TableRow(3, "{{i,j},{i,k}}", ((0, 1), (0, 2)), 30, "[1, 1, 1, -d1/d0, -e1/e0]",
             lambda p, P: [ONE, ONE, ONE, -P.d1 / P.d0, -P.e1 / P.e0]),
    TableRow(4, "{{i,j},{k,l}}", ((0, 1), (2, 3)), 15,
             "[1, 1, 1, -d1(c0-c1)/(d0(c0+c1)), -e1/e0]",
             lambda p, P: [ONE, ONE, ONE,
                           -(P.d1 * (P.c0 - P.c1)) / (P.d0 * (P.c0 + P.c1)),
                           -P.e1 / P.e0]),
    TableRow(5, "{{i,j},{i,k},{i,l}}", ((0, 1), (0, 2), (0, 3)), 20,
             "[1, b1/b0, -c1/c0, 1, -e1/e0]",
             lambda p, P: [ONE, P.b1 / P.b0, -P.c1 / P.c0, ONE, -P.e1 / P.e0]),
    TableRow(6, "{{i,j},{j,k},{i,k}}", ((0, 1), (1, 2), (0, 2)), 10,
             "[1, 1, 1, -d1/d0, -e1/e0]",
             lambda p, P: [ONE, ONE, ONE, -P.d1 / P.d0, -P.e1 / P.e0]),
    TableRow(7, "{{i,j},{i,k},{j,l}}", ((0, 1), (0, 2), (1, 3)), 60,
             "[1, 1, 1, -d1*T1/(d0*T2), -e1/e0]",
             lambda p, P: [ONE, ONE, ONE,
                           -(P.d1 * tri1(p)) / (P.d0 * tri2(p)),
                           -P.e1 / P.e0]),
    TableRow(8, "{{i,j},{i,k},{l,n}}", ((0, 1), (0, 2), (3, 4)), 30,
             "[1, 1, 1, -d1/d0, -e1/e0]",
             lambda p, P: [ONE, ONE, ONE, -P.d1 / P.d0, -P.e1 / P.e0]),
    TableRow(9, "{{i,j},{i,k},{i,l},{i,n}}", ((0, 1), (0, 2), (0, 3), (0, 4)), 5,
             "[1, b1/b0, -c1/c0, 1, -e1/e0]",
             lambda p, P: [ONE, P.b1 / P.b0, -P.c1 / P.c0, ONE, -P.e1 / P.e0]),
    TableRow(10, "{{i,j},{i,k},{i,l},{j,n}}", ((0, 1), (0, 2), (0, 3), (1, 4)), 60,
             "[1, b1/b0, -c1/c0, 1, -e1/e0]",
             lambda p, P: [ONE, P.b1 / P.b0, -P.c1 / P.c0, ONE, -P.e1 / P.e0]),
    TableRow(11, "{{i,j},{j,k},{i,k},{i,l}}", ((0, 1), (1, 2), (0, 2), (0, 3)), 60,
             "[1, -(i-1)b1/((i+1)b0), (i+1)c1/c0, 1, -e1/e0]",
             lambda p, P: [ONE,
                           -((I - 1) * P.b1) / ((I + 1) * P.b0),
                           (I + 1) * P.c1 / P.c0,
                           ONE, -P.e1 / P.e0]),
    TableRow(12, "{{i,j},{j,k},{k,l},{i,l}}", ((0, 1), (1, 2), (2, 3), (0, 3)), 15,
             "[a1/a0, b1/b0, -c1/c0, d1/d0, 1]",
             lambda p, P: [P.a1 / P.a0, P.b1 / P.b0, -P.c1 / P.c0, P.d1 / P.d0, ONE]),
    TableRow(13, "{{i,j},{k,l},{l,n},{k,n}}", ((0, 1), (2, 3), (3, 4), (2, 4)), 10,
             "[1, 1, 1, -d1(c0-c1)/(d1(c0+c1)), -e1/e0]",
             lambda p, P: [ONE, ONE, ONE,
                           -(P.d1 * (P.c0 - P.c1)) / (P.d1 * (P.c0 + P.c1)),
                           -P.e1 / P.e0]),
    TableRow(14, "{{i,j},{j,k},{k,l},{l,n}}", ((0, 1), (1, 2), (2, 3), (3, 4)), 60,
             "[1, 1, 1, -d1*T3/(d0*T4), e1/e0]",
             lambda p, P: [ONE, ONE, ONE,
                           -(P.d1 * tri3(p)) / (P.d0 * tri4(p)),
                           P.e1 / P.e0]),
    TableRow(15, "{{i,j},{j,k},{k,l},{l,n},{i,n}}",
             ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4)), 12,
             "[1, 1, 1, -d1*T5/(d0*T6), -e1/e0]",
             lambda p, P: [ONE, ONE, ONE,
                           -(P.d1 * tri5(p)) / (P.d0 * tri4(p)),
                           -P.e1 / P.e0]),
    TableRow(16, "{{i,j},{i,k},{i,l},{i,n},{j,k}}",
             ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2)), 30,
             "[1, -b1(i-1)/(b0(i+1)), (i+1)c1/c0, 1, -e1/e0]",
             lambda p, P: [ONE,
                           -(P.b1 * (I - 1)) / (P.b0 * (I + 1)),
                           (I + 1) * P.c1 / P.c0,
                           ONE, -P.e1 / P.e0]),
    TableRow(17, "{{i,j},{i,k},{i,l},{j,n},{j,k}}",
             ((0, 1), (0, 2), (0, 3), (1, 4), (1, 2)), 60,
             "[1, -b1(i-1)/(b0(i+1)), (i+1)c1/c0, 1, -e1/e0]",
             lambda p, P: [ONE,
                           -(P.b1 * (I - 1)) / (P.b0 * (I + 1)),
                           (I + 1) * P.c1 / P.c0,
                           ONE, -P.e1 / P.e0]),
    TableRow(18, "{{i,j},{i,k},{i,l},{j,k},{k,l}}",
             ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3)), 30,
             "[-i*a1/a0, i*b1(i-1)/(b0(i+1)), c1/c0, d1/d0, 1]",
             lambda p, P: [-I * P.a1 / P.a0,
                           I * (P.b1 * (I - 1)) / (P.b0 * (I + 1)),
                           P.c1 / P.c0, P.d1 / P.d0, ONE]),
    TableRow(19, "{{i,j},{j,k},{k,l},{i,l},{j,n}}",
             ((0, 1), (1, 2), (2, 3), (0, 3), (1, 4)), 60,
             "[a1(i-1)(b0-b1)/(a0(i+1)(b0+b1)), 1, i*c1/c0, 1, 1]",
             lambda p, P: [(P.a1 * (I - 1) * (P.b0 - P.b1))
                           / (P.a0 * (I + 1) * (P.b0 + P.b1)),
                           ONE, I * P.c1 / P.c0, ONE, ONE]),
    TableRow(20, "{{i,j},{j,k},{i,k},{i,l},{l,n}}",
             ((0, 1), (1, 2), (0, 2), (0, 3), (3, 4)), 60,
             "[1, -b1(i-1)/(b0(i+1)), i*c1/c0, 1, -e1/e0]",
             lambda p, P: [ONE,
                           -(P.b1 * (I - 1)) / (P.b0 * (I + 1)),
                           I * P.c1 / P.c0, ONE, -P.e1 / P.e0]),
    TableRow(21, "K5 - {}", _k5_minus([]), 1,
             "[a1/a0, -b1/b0, -c1/c0, d1/d0, 1]",
             lambda p, P: [P.a1 / P.a0, -P.b1 / P.b0, -P.c1 / P.c0, P.d1 / P.d0, ONE]),
    TableRow(22, "K5 - {{i,j}}", _k5_minus([(0, 1)]), 10,
             "[a1/a0, -b1/b0, -c1/c0, d1/d0, 1]",
             lambda p, P: [P.a1 / P.a0, -P.b1 / P.b0, -P.c1 / P.c0, P.d1 / P.d0, ONE]),
    TableRow(23, "K5 - {{i,j},{i,k}}", _k5_minus([(0, 1), (0, 2)]), 30,
             "[1, -b1(i-1)/(b0(i+1)), i*c1/c0, 1, -e1/e0]",
             lambda p, P: [ONE,
                           -(P.b1 * (I - 1)) / (P.b0 * (I + 1)),
                           I * P.c1 / P.c0, ONE, -P.e1 / P.e0]),
    TableRow(24, "K5 - {{i,j},{k,l}}", _k5_minus([(0, 1), (2, 3)]), 15,
             "[a1/a0, -b1(i-1)/(b0(i+1)), i*c1/c0, 1, -e1/e0]",
             lambda p, P: [P.a1 / P.a0,
                           -(P.b1 * (I - 1)) / (P.b0 * (I + 1)),
                           I * P.c1 / P.c0, ONE, -P.e1 / P.e0]),
    TableRow(25, "K5 - {{i,j},{i,k},{i,l}}", _k5_minus([(0, 1), (0, 2), (0, 3)]), 20,
             "[-a1/a0, -b1(i-1)/(b0(i+1)), i*c1/c0, 1, 1]",
             lambda p, P: [-P.a1 / P.a0,
                           -(P.b1 * (I - 1)) / (P.b0 * (I + 1)),
                           I * P.c1 / P.c0, ONE, ONE]),
    TableRow(26, "K5 - {{i,j},{j,k},{i,k}}", _k5_minus([(0, 1), (1, 2), (0, 2)]), 10,
             "[1, b1/b0, -c0/c1, 1, -e1/e0]",
             lambda p, P: [ONE, P.b1 / P.b0, -P.c0 / P.c1, ONE, -P.e1 / P.e0]),
    TableRow(27, "K5 - {{i,j},{i,k},{j,l}}", _k5_minus([(0, 1), (0, 2), (1, 3)]), 60,
             "[a1/a0, 1, -b1(c0-c1)/(b0(c0+c1)), 1, 1, -e1/e0]  (six components)",
             None),
    TableRow(28, "K5 - {{i,j},{i,k},{l,n}}", _k5_minus([(0, 1), (0, 2), (3, 4)]), 30,
             "[1, -b1(i-1)/(b0(i+1)), i*c1/c0, 1, -e1/e0]",
             lambda p, P: [ONE,
                           -(P.b1 * (I - 1)) / (P.b0 * (I + 1)),
                           I * P.c1 / P.c0, ONE, -P.e1 / P.e0]),
    TableRow(29, "K5 - {{i,j},{i,k},{i,l},{i,n}}",
             _k5_minus([(0, 1), (0, 2), (0, 3), (0, 4)]), 5,
             "[-a1/a0, -b1(i-1)/(b0(i+1)), i*c1/c0, 1, 1]",
             lambda p, P: [-P.a1 / P.a0,
                           -(P.b1 * (I - 1)) / (P.b0 * (I + 1)),
                           I * P.c1 / P.c0, ONE, ONE]),
    TableRow(30, "K5 - {{i,j},{i,k},{i,l},{j,n}}",
             _k5_minus([(0, 1), (0, 2), (0, 3), (1, 4)]), 60,
             "[-a1/a0, -b1(i-1)/(b0(i+1)), i*c1/c0, 1, 1]",
             lambda p, P: [-P.a1 / P.a0,
                           -(P.b1 * (I - 1)) / (P.b0 * (I + 1)),
                           I * P.c1 / P.c0, ONE, ONE]),
    TableRow(31, "K5 - {{i,j},{j,k},{i,k},{i,l}}",
             _k5_minus([(0, 1), (1, 2), (0, 2), (0, 3)]), 60,
             "[-a1/a0, b1/b0, -c1/c0, 1, 1]",
             lambda p, P: [-P.a1 / P.a0, P.b1 / P.b0, -P.c1 / P.c0, ONE, ONE]),
    TableRow(32, "K5 - {{i,j},{j,k},{k,l},{i,l}}",
             _k5_minus([(0, 1), (1, 2), (2, 3), (0, 3)]), 15,
             "[-a1(c0-c1)/(a0(c0+c1)), 1, 1, -d1(b0-b1)/(d0(b0+b1)), 1]",
             lambda p, P: [-(P.a1 * (P.c0 - P.c1)) / (P.a0 * (P.c0 + P.c1)),
                           ONE, ONE,
                           -(P.d1 * (P.b0 - P.b1)) / (P.d0 * (P.b0 + P.b1)),
                           ONE]),
    TableRow(33, "K5 - {{i,j},{k,l},{l,n},{k,n}}",
             _k5_minus([(0, 1), (2, 3), (3, 4), (2, 4)]), 10,
             "[a1/a0, -b1/b0, -c1/c0, d1/d1, 1]",
             lambda p, P: [P.a1 / P.a0, -P.b1 / P.b0, -P.c1 / P.c0, P.d1 / P.d1, ONE]),
    TableRow(34, "K5 - {{i,j},{j,k},{k,l},{l,n}}",
             _k5_minus([(0, 1), (1, 2), (2, 3), (3, 4)]), 60,
             "[a0(c0-c1)/(a1(c0+c1)), -b1/b0, 1, 1, -e1/e0]",
             lambda p, P: [(P.a0 * (P.c0 - P.c1)) / (P.a1 * (P.c0 + P.c1)),
                           -P.b1 / P.b0, ONE, ONE, -P.e1 / P.e0]),
]

# Corrected rows for table entries that fail verification (each failure is
# still reported when the printed row is tried first).  Re-derived by exact
# elimination on the ground-form system and verified by the module tests;
# entries return [x0, y0, z0, t0, s0] with all second components 1.
_CORRECTED: dict[int, Callable] = {
    8: lambda p, P: [
        -(P.a1 * (P.b0 - P.b1) * (P.c0 - P.c1)) / (P.a0 * (P.b0 + P.b1) * (P.c0 + P.c1)),
        ONE, ONE, ONE,
        (P.e1 * (P.d1 - P.d0)) / (P.e0 * (P.d0 + P.d1)),
    ],
    9: lambda p, P: [ONE, P.b1 / P.b0, P.c1 / P.c0, -P.d1 / P.d0, -P.e1 / P.e0],
    10: lambda p, P: [
        ZERO, ONE, P.c1 / P.c0, P.d1 / P.d0,
        (P.e1 * (P.b1 - P.b0)) / (P.e0 * (P.b0 + P.b1)),
    ],
    11: lambda p, P: [ZERO, -I * P.b1 / P.b0, I * P.c1 / P.c0, P.d1 / P.d0, ONE],
    14: lambda p, P: [P.a1 / P.a0, ZERO, ONE, ZERO, P.e1 / P.e0],
    16: lambda p, P: [ONE, -I * P.b1 / P.b0, I * P.c1 / P.c0, P.d1 / P.d0, -P.e1 / P.e0],
    17: lambda p, P: [ZERO, ZERO, ONE, P.d1 / P.d0, P.e1 / P.e0],
    19: lambda p, P: [ZERO, ZERO, ZERO, -P.d1 / P.d0, P.e1 / P.e0],
    20: lambda p, P: [ONE, -I * P.b1 / P.b0, I * P.c1 / P.c0, ZERO, P.e1 / P.e0],
    21: lambda p, P: [
        ZERO, I * P.b1 / P.b0, I * P.c1 / P.c0, -I * P.d1 / P.d0, -I * P.e1 / P.e0,
    ],
    22: lambda p, P: [P.a1 / P.a0, -P.b1 / P.b0, I * P.c1 / P.c0, -I * P.d1 / P.d0, ONE],
    23: lambda p, P: [
        P.a1 / P.a0, -I * P.b1 / P.b0, I * P.c1 / P.c0, -P.d1 / P.d0, -P.e1 / P.e0,
    ],
    24: lambda p, P: [
        P.a1 / P.a0, -P.b1 / P.b0, P.c1 / P.c0, -P.d1 / P.d0, -P.e1 / P.e0,
    ],
    25: lambda p, P: [
        -(P.a1 * (P.e0 + I * P.e1)) / (P.a0 * (P.e0 - I * P.e1)),
        -I * P.b1 / P.b0, I * P.c1 / P.c0, -I * P.d1 / P.d0, ONE,
    ],
    26: lambda p, P: [
        -P.a1 / P.a0, P.b1 / P.b0, P.c1 / P.c0, -P.d1 / P.d0, -P.e1 / P.e0,
    ],
    28: lambda p, P: [ONE, -I * P.b1 / P.b0, I * P.c1 / P.c0, P.d1 / P.d0, -P.e1 / P.e0],
    30: lambda p, P: [
        (P.a1 * (P.e1 - P.e0)) / (P.a0 * (P.e0 + P.e1)),
        P.b1 / P.b0, I * P.c1 / P.c0, -I * P.d1 / P.d0, ONE,
    ],
    31: lambda p, P: [
        -(P.a1 * (P.e0 + I * P.e1)) / (P.a0 * (P.e0 - I * P.e1)),
        P.b1 / P.b0, -P.c1 / P.c0, -I * P.d1 / P.d0, ONE,
    ],
    32: lambda p, P: [ZERO, I * P.b1 / P.b0, -P.c1 / P.c0, -I * P.d1 / P.d0, ZERO],
    33: lambda p, P: [P.a1 / P.a0, -P.b1 / P.b0, -P.c1 / P.c0, P.d1 / P.d0, ONE],
}

# Classes whose ground-form system has NO nontrivial solution at generic
# parameters: the witness search is provably hopeless there.  Established by
# Groebner-basis emptiness certificates at a random rational parameter point
# on all 32 charts {u_q = 1} or {u_q = 0, w_q = 1} that together cover
# (P^1)^5, so for these edge classes the hyperdeterminant does NOT vanish and
# the tabulated rows cannot be repaired.  The classes are the 5-cycle and the
# complements of {{0,1},{0,2},{1,3}} and of the 5-vertex path.
GENERICALLY_NONSINGULAR: frozenset[int] = frozenset({15, 27, 34})


class WitnessNotFound(ValueError):
    """No verified nontrivial solution could be produced for this state."""

    def __init__(self, row: TableRow, discrepancy: str | None):
        detail = f"printed-row failure: {discrepancy}" if discrepancy else ""
        if row.index in GENERICALLY_NONSINGULAR:
            detail += (
                "; this edge class is generically nonsingular (its ground-form "
                "system has no nontrivial solution at generic parameters), so "
                "the vanishing-hyperdeterminant claim fails for it"
            )
        super().__init__(
            f"no verified solution for class {row.index} ({row.shape}){': ' if detail else ''}{detail}"
        )
        self.class_index = row.index
        self.discrepancy = discrepancy


def _canonical_key(pairs: frozenset) -> tuple[tuple, Permutation]:
    """The least relabeled edge list over all 120 relabelings, and the first
    relabeling that attains it."""
    best = best_images = None
    for images in permutations(range(5)):
        mapped = tuple(sorted(tuple(sorted((images[i], images[j]))) for i, j in pairs))
        if best is None or mapped < best:
            best, best_images = mapped, images
    return best, Permutation(5, best_images)


# canonical key -> (row, inverse of the relabeling taking the representative
# to that key)
_CLASS_BY_KEY = {}
for _row in _TABLE:
    _key, _relabeling = _canonical_key(frozenset(_row.representative))
    _CLASS_BY_KEY[_key] = (_row, _relabeling.inverse())

if len(_CLASS_BY_KEY) != 34:
    raise AssertionError("the 34 representatives are not pairwise non-isomorphic")


def _class_and_relabeling(e: PairSet) -> tuple[TableRow, Permutation]:
    """E's table row and a relabeling sigma with sigma(E) = its representative."""
    if e.k != 5:
        raise ValueError("needs a 5-qubit pair set")
    key, relabeling = _canonical_key(e.pairs)
    row, from_key = _CLASS_BY_KEY[key]
    return row, from_key.compose(relabeling)


def class_of(e: PairSet) -> TableRow:
    """The table row whose representative is isomorphic to E."""
    return _class_and_relabeling(e)[0]


def _evaluate_row(row: TableRow, params) -> list[RingScalar]:
    if row.solution is None:
        raise ValueError(
            f"tabulated row {row.index} is malformed as printed: {row.formula}"
        )
    comps = _components(params)
    try:
        values = row.solution(params, comps)
    except ZeroDivisionError:
        raise TableDenominatorError(row.index, row.formula) from None
    if len(values) != 5:
        raise ValueError(f"tabulated row {row.index} has {len(values)} components")
    return values


@dataclass(frozen=True)
class FiveQubitWitness:
    """Result of a table lookup: a verified nontrivial solution plus
    provenance (which class, whether the printed row failed and how)."""

    solution: SystemSolution
    class_index: int
    class_shape: str
    relabeling: Permutation
    from_fallback: bool
    discrepancy: str | None


def tabulated_solution_5q(e: PairSet, params: ParamSpec) -> FiveQubitWitness:
    """A verified nontrivial solution of the ground-form system for Z_E on a
    5-qubit product state.

    The printed table row for E's class is evaluated at relabeled parameters
    and transported back.  If it fails the exact check (most printed rows
    beyond the first few are defective), the discrepancy is recorded and a
    fallback is used: a curated corrected row, else the structural
    two-component search.  For the three generically nonsingular classes in
    GENERICALLY_NONSINGULAR no witness exists and WitnessNotFound is raised.
    """
    if e.k != 5 or params.k != 5:
        raise ValueError("needs five qubits")
    row, sigma = _class_and_relabeling(e)
    state = phi_state(e, params)
    # parameters of the relabeled state: qubit sigma(i) carries pair i
    rep_params = [None] * 5
    for i in range(5):
        rep_params[sigma(i)] = params.pairs[i]
    discrepancy = None
    try:
        values = _evaluate_row(row, rep_params)
        sol = SystemSolution(tuple((values[sigma(i)], ONE) for i in range(5)))
        if hyperdet_system_check(state, sol):
            return FiveQubitWitness(sol, row.index, row.shape, sigma, False, None)
        discrepancy = f"row {row.index} ({row.shape}) fails the system check as printed"
    except (ValueError, TableDenominatorError) as exc:
        discrepancy = str(exc)

    corrected = _CORRECTED.get(row.index)
    if corrected is not None:
        try:
            values = corrected(rep_params, _components(rep_params))
            sol = SystemSolution(tuple((values[sigma(i)], ONE) for i in range(5)))
            if hyperdet_system_check(state, sol):
                return FiveQubitWitness(sol, row.index, row.shape, sigma, True, discrepancy)
        except ZeroDivisionError:
            pass
    sol = _structural_fallback(e, params)
    if sol is not None and hyperdet_system_check(state, sol):
        return FiveQubitWitness(sol, row.index, row.shape, sigma, True, discrepancy)
    raise WitnessNotFound(row, discrepancy)


# ---------------------------------------------------------------------------
# Structural fallback for disconnected graphs
# ---------------------------------------------------------------------------


def _components_of_graph(e: PairSet) -> list[list[int]]:
    parent = list(range(5))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for i, j in e.pairs:
        parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for v in range(5):
        groups.setdefault(find(v), []).append(v)
    return sorted(groups.values())


def _zero_component_factor(e: PairSet, params: ParamSpec, comp: list[int]):
    """Value pairs on comp's qubits making that tensor factor vanish, or None.

    Single qubit: kill the linear factor directly.  Larger component: set
    every pair to (1, 1) except the largest qubit, whose first component is
    solved from the (linear) restricted factor; a few deterministic retries
    reseed the fixed pairs when the linear coefficient degenerates.
    """
    last = comp[-1]
    if len(comp) == 1:
        p0, p1 = params.pairs[last]
        if not p0.is_zero():
            return {last: (-p1 / p0, ONE)}
        return {last: (ONE, ZERO)}  # factor reduces to p0 = 0
    sub_pairs = PairSet.of(5, [pq for pq in e.pairs if pq[0] in comp and pq[1] in comp])
    for fill in (ONE, RingScalar(2), RingScalar(3), RingScalar(5)):
        assign = {q: (fill, ONE) for q in comp}
        # restricted factor evaluated with x_(last) = (u, 1): A*u + B
        coeff_a = ZERO
        coeff_b = ZERO
        for n in range(1 << 5):
            if any(((n >> q) & 1) and q not in comp for q in range(5)):
                continue
            term = ONE
            for q in comp:
                bit = (n >> q) & 1
                term = term * params.pairs[q][bit]
                if q != last:
                    term = term * assign[q][bit]
            if sub_pairs.sign_at(n) < 0:
                term = -term
            if (n >> last) & 1:
                coeff_b = coeff_b + term
            else:
                coeff_a = coeff_a + term
        if not coeff_a.is_zero():
            assign[last] = (-coeff_b / coeff_a, ONE)
            return assign
    return None


def _structural_fallback(e: PairSet, params: ParamSpec) -> SystemSolution | None:
    """For a disconnected graph, zero two tensor factors: the form and every
    partial then retain at least one vanishing factor."""
    comps = _components_of_graph(e)
    if len(comps) < 2:
        return None
    assigns = []
    for comp in comps[:2]:
        a = _zero_component_factor(e, params, comp)
        if a is None:
            return None
        assigns.append(a)
    merged = {}
    for a in assigns:
        merged.update(a)
    pairs = tuple(merged.get(q, (ONE, ONE)) for q in range(5))
    return SystemSolution(pairs)


def all_edge_classes() -> list[TableRow]:
    return list(_TABLE)
