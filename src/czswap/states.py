"""Pure-state construction: parameterized product states hit by phase gates,
the named GHZ/W states, and the GHZ preparation circuit.

Basis index convention: amplitude ``amps[n]`` belongs to the ket whose qubit-i
bit is ``(n >> i) & 1`` (qubit 0 least significant).  Parameter pairs are
indexed by qubit: ``pairs[i]`` belongs to qubit i.  ``multilinear_form``
turns amplitudes into a ground form under this convention; it is the one
place that builds ground-form exponent keys.

States carry one of two backends.  The exact backend stores RingScalar
amplitudes; the float backend stores complex ones and may keep an exact
unnormalized companion (used so homogeneous polynomial tests stay exact even
when the normalisation 1/sqrt(k) leaves the scalar ring).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .circuit import Circuit, Gate, cz, h
from .group import PairSet
from .poly import MultiPoly
from .ring import ONE, ZERO, RingScalar
from .simulate import apply_circuit


@dataclass(frozen=True)
class ParamSpec:
    """One exact (a0, a1) pair per qubit; pairs[i] belongs to qubit i."""

    pairs: tuple[tuple[RingScalar, RingScalar], ...]

    def __post_init__(self):
        coerced = tuple(
            (RingScalar.coerce(p0), RingScalar.coerce(p1)) for p0, p1 in self.pairs
        )
        object.__setattr__(self, "pairs", coerced)
        for q, (p0, p1) in enumerate(coerced):
            if p0.is_zero() and p1.is_zero():
                raise ValueError(f"parameter pair for qubit {q} is (0, 0)")

    @property
    def k(self) -> int:
        return len(self.pairs)


def random_params(k: int, seed: int | random.Random) -> ParamSpec:
    """Random positive rational pairs with numerators/denominators in [1, 97]."""
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    pairs = tuple(
        (
            RingScalar(Fraction(rng.randint(1, 97), rng.randint(1, 97))),
            RingScalar(Fraction(rng.randint(1, 97), rng.randint(1, 97))),
        )
        for _ in range(k)
    )
    return ParamSpec(pairs)


@dataclass(frozen=True)
class PureState:
    """2**k amplitudes in either the exact or the floating backend."""

    k: int
    backend: str  # "exact" | "float"
    amps: tuple
    exact_unnorm: tuple | None = None  # unnormalized RingScalar companion

    def __post_init__(self):
        if self.backend not in ("exact", "float"):
            raise ValueError(f"unknown backend {self.backend!r}")
        if len(self.amps) != 1 << self.k:
            raise ValueError("amplitude count must be 2**k")

    @staticmethod
    def exact(k: int, amps) -> "PureState":
        return PureState(k, "exact", tuple(RingScalar.coerce(a) for a in amps))

    @staticmethod
    def floating(k: int, amps, exact_unnorm=None) -> "PureState":
        return PureState(
            k,
            "float",
            tuple(complex(a) for a in amps),
            tuple(exact_unnorm) if exact_unnorm is not None else None,
        )

    def exact_amplitudes(self) -> tuple | None:
        """Exact amplitudes for polynomial tests: the state itself on the
        exact backend, else the unnormalized companion when present."""
        if self.backend == "exact":
            return self.amps
        return self.exact_unnorm

    def norm_squared(self):
        if self.backend == "exact":
            return sum((a.abs2() for a in self.amps), ZERO)
        return sum(abs(a) ** 2 for a in self.amps)

    def permute_qubits(self, sigma) -> "PureState":
        """Relabel qubit i as sigma(i), permuting amplitudes accordingly."""
        dim = 1 << self.k

        def permute(amps):
            out = [None] * dim
            for n in range(dim):
                m = 0
                for i in range(self.k):
                    if (n >> i) & 1:
                        m |= 1 << sigma(i)
                out[m] = amps[n]
            return tuple(out)

        companion = permute(self.exact_unnorm) if self.exact_unnorm is not None else None
        return PureState(self.k, self.backend, permute(self.amps), companion)


def phi_state(e: PairSet, params: ParamSpec) -> PureState:
    """Z_E applied to the product state with per-qubit pairs (unnormalized):
    the amplitude at index n is the phase sign times prod_i pairs[i][bit_i(n)]."""
    if e.k != params.k:
        raise ValueError(f"pair set is on {e.k} qubits, parameters on {params.k}")
    k = e.k
    amps = []
    for n in range(1 << k):
        a = ONE
        for i in range(k):
            a = a * params.pairs[i][(n >> i) & 1]
        if e.sign_at(n) < 0:
            a = -a
        amps.append(a)
    return PureState(k, "exact", tuple(amps))


def _exponents(n: int, order) -> tuple[int, ...]:
    """Exponent key of basis index n: variable pair j holds the bit of qubit
    order[j] as (1 - bit, bit)."""
    key = []
    for q in order:
        bit = (n >> q) & 1
        key += (1 - bit, bit)
    return tuple(key)


def multilinear_form(amps, order) -> MultiPoly:
    """The ground form sum_n amps[n] * prod_j x(j)_{bit of qubit order[j] in n}.

    Variable pair j carries qubit ``order[j]``, so ``range(k)`` puts qubit i
    on pair i and ``(3, 2, 1, 0)`` reads the ket labels left to right.
    Amplitudes may be scalars or MultiPolys (a form whose coefficients are
    polynomials in further variables); zero amplitudes are dropped.
    """
    order = tuple(order)
    return MultiPoly(len(order), {_exponents(n, order): a for n, a in enumerate(amps)})


def phi_state_symbolic(e: PairSet) -> list[MultiPoly]:
    """Amplitudes of phi_state with the parameters left as indeterminates:
    entry n is the signed monomial prod_i p(i)_{bit_i(n)} of arity k."""
    k = e.k
    return [MultiPoly(k, {_exponents(n, range(k)): e.sign_at(n)}) for n in range(1 << k)]


def named_state(name: str, k: int) -> PureState:
    """The GHZ and W states.

    GHZ is always exact.  W is exact when 1/sqrt(k) lies in the scalar ring
    (k a power of two); otherwise it is built on the float backend with the
    unnormalized exact amplitudes kept alongside.
    """
    if k < 2:
        raise ValueError("need at least two qubits")
    dim = 1 << k
    if name.upper() == "GHZ":
        half = RingScalar.inv_sqrt2_pow(1)
        amps = [ZERO] * dim
        amps[0] = half
        amps[dim - 1] = half
        return PureState(k, "exact", tuple(amps))
    if name.upper() == "W":
        unnorm = [ZERO] * dim
        for i in range(k):
            unnorm[1 << i] = ONE
        m = k.bit_length() - 1
        if k == 1 << m:  # 1/sqrt(k) = 2**(-m/2) is in the ring
            scale = RingScalar.inv_sqrt2_pow(m)
            return PureState(k, "exact", tuple(a * scale for a in unnorm))
        norm = k ** -0.5
        return PureState(
            k, "float", tuple(complex(a) * norm for a in unnorm), tuple(unnorm)
        )
    raise ValueError(f"unknown named state {name!r}")


def ghz_circuit(k: int) -> Circuit:
    """H on every qubit, c-Z from qubit 0 to each other qubit, then H on
    qubits 1..k-1; sends |0...0> exactly to the GHZ state."""
    if k < 2:
        raise ValueError("need at least two qubits")
    gates: list[Gate] = [h(q) for q in range(k)]
    gates.extend(cz(0, j) for j in range(1, k))
    gates.extend(h(q) for q in range(1, k))
    return Circuit(k, tuple(gates))


def run_on_zero_state(c: Circuit) -> PureState:
    """Apply a circuit to |0...0> in exact arithmetic."""
    amps = [ZERO] * (1 << c.k)
    amps[0] = ONE
    return PureState(c.k, "exact", tuple(apply_circuit(c, amps)))


def g_abcd_state(a, b, c, d) -> PureState:
    """The generic four-qubit family with parameters (a, b, c, d):
    (a+d)/2 on |0000>, |1111>; (a-d)/2 on |0011>, |1100>;
    (b+c)/2 on |0101>, |1010>; (b-c)/2 on |0110>, |1001> (unnormalized)."""
    a, b, c, d = (RingScalar.coerce(v) for v in (a, b, c, d))
    two = RingScalar(2)
    amps = [ZERO] * 16
    amps[0b0000] = amps[0b1111] = (a + d) / two
    amps[0b0011] = amps[0b1100] = (a - d) / two
    amps[0b0101] = amps[0b1010] = (b + c) / two
    amps[0b0110] = amps[0b1001] = (b - c) / two
    return PureState(4, "exact", tuple(amps))


# ---------------------------------------------------------------------------
# Floating backend helpers (for gates outside the exact ring)
# ---------------------------------------------------------------------------


def float_plus_state(k: int) -> list[complex]:
    """(|0> + |1>)^k / sqrt(2**k)."""
    scale = 2 ** (-k / 2)
    return [scale] * (1 << k)


def apply_phase_pairs_float(amps: list[complex], e: PairSet) -> list[complex]:
    return [a * e.sign_at(n) for n, a in enumerate(amps)]


def apply_single_qubit_float(amps: list[complex], q: int, m) -> list[complex]:
    """Apply a 2x2 complex matrix [[m00, m01], [m10, m11]] on qubit q."""
    out = list(amps)
    b = 1 << q
    for n in range(len(amps)):
        if not n & b:
            lo, hi = amps[n], amps[n | b]
            out[n] = m[0][0] * lo + m[0][1] * hi
            out[n | b] = m[1][0] * lo + m[1][1] * hi
    return out
