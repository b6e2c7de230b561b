"""Hyperdeterminant nullity through its system-of-equations witness.

The hyperdeterminant of a k-linear ground form vanishes exactly when the form
and all its 2k first partial derivatives share a common zero that is
nontrivial: no variable pair sits at (0, 0).  That criterion needs no giant
invariant polynomial, only exact evaluation, so it scales to five qubits and
to the GHZ genericity question.

The check never builds the form as a polynomial.  A forward contraction of
the 2**k amplitudes against the point, one qubit at a time, gives the form's
value; a backward pass over the kept partial contractions gives all 2k
partials (about 150 scalar products at k = 5).  ``ground_form`` returns the
same form as a ``MultiPoly``, built by ``states.multilinear_form``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .poly import MultiPoly
from .ring import ONE, RingScalar
from .states import PureState, multilinear_form, named_state


def ground_form(state: PureState) -> MultiPoly:
    """The multilinear form sum_n amps[n] * prod_i x(i)_{bit_i(n)}; variable
    pair i belongs to qubit i.  Uses exact amplitudes when available."""
    return multilinear_form(state.exact_amplitudes() or state.amps, range(state.k))


@dataclass(frozen=True)
class SystemSolution:
    """Candidate common zero: one exact value pair per qubit, none (0, 0)."""

    pairs: tuple[tuple[RingScalar, RingScalar], ...]

    def __post_init__(self):
        coerced = tuple(
            (RingScalar.coerce(v0), RingScalar.coerce(v1)) for v0, v1 in self.pairs
        )
        object.__setattr__(self, "pairs", coerced)
        for q, (v0, v1) in enumerate(coerced):
            if v0.is_zero() and v1.is_zero():
                raise ValueError(f"solution pair for qubit {q} is trivial (0, 0)")

    @property
    def k(self) -> int:
        return len(self.pairs)


def _form_and_partials(amps, point):
    """The ground form of amps and its 2k first partials at point.

    Returns (value, partials) with partials[2*i + c] the derivative in
    x(i)_c.  levels[i] is the form contracted over qubits 0..i-1: a tensor
    over qubits i..k-1 indexed like the amplitudes.  The partial in x(i)_c
    contracts the entries of levels[i] whose qubit-i bit is c against the
    product weights[m] = prod_{j > i} x(j)_{bit of qubit j in m}.
    """
    levels = [list(amps)]
    for v0, v1 in point:
        cur = levels[-1]
        levels.append([cur[m] * v0 + cur[m + 1] * v1 for m in range(0, len(cur), 2)])
    partials = [None] * (2 * len(point))
    weights = [ONE]
    for i in reversed(range(len(point))):
        cur = levels[i]
        for c in (0, 1):
            partials[2 * i + c] = sum(cur[2 * m + c] * w for m, w in enumerate(weights))
        if i:
            weights = [w * v for w in weights for v in point[i]]
    return levels[-1][0], partials


def hyperdet_system_check(state: PureState, sol: SystemSolution) -> bool:
    """True iff the ground form and all its first partials vanish at sol.

    The solution's nontriviality is enforced by its type, so a True answer
    witnesses a vanishing hyperdeterminant.
    """
    if sol.k != state.k:
        raise ValueError(f"solution has {sol.k} pairs, state has {state.k} qubits")
    value, partials = _form_and_partials(state.exact_amplitudes() or state.amps, sol.pairs)
    return value == 0 and all(p == 0 for p in partials)


def ghz_generic(k: int) -> bool:
    """Whether the GHZ state on k qubits is generically entangled
    (nonvanishing hyperdeterminant).

    The GHZ ground form is x(1)_0...x(k)_0 + x(1)_1...x(k)_1 and every
    equation of its system is a monomial (each partial) or a sum of two
    monomials (the form itself), so solvability depends only on which
    component of each pair is zero.  The search over all component-zero
    patterns is therefore a complete decision procedure: a pattern solves
    the partials iff at least two pairs zero component 0 and at least two
    zero component 1, disjointly (a pattern zeroing neither component of
    some pair leaves that pair's partial monomials untouched).  Candidate
    patterns are validated through the exact checker before being believed.
    """
    if not 2 <= k <= 8:
        raise ValueError("supported range is 2 <= k <= 8")
    state = named_state("GHZ", k)
    one = RingScalar(1)
    zero = RingScalar(0)
    # pattern entry per qubit: 0 = x_0 zeroed, 1 = x_1 zeroed, 2 = neither
    pattern = [0] * k
    while True:
        n0 = pattern.count(0)
        n1 = pattern.count(1)
        if n0 >= 2 and n1 >= 2:
            pairs = tuple(
                (zero, one) if p == 0 else (one, zero) if p == 1 else (one, one)
                for p in pattern
            )
            if hyperdet_system_check(state, SystemSolution(pairs)):
                return False  # nontrivial solution: hyperdeterminant vanishes
        # next pattern in base 3
        for i in range(k):
            pattern[i] += 1
            if pattern[i] < 3:
                break
            pattern[i] = 0
        else:
            return True
