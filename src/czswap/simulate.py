"""Exact matrix semantics and brute-force oracles.

Phase/swap circuits act as signed permutation matrices (one +-1 entry per row
and column), composed with integer arithmetic.  Circuits containing H or X
fall back to dense matrices over Q(i)[sqrt2].  On top of those two exact
representations sit the package's oracles: circuit equivalence, group
enumeration by breadth-first closure, and presentation verification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import combinations, permutations

from .circuit import Circuit, Topology
from .group import NormalForm, Permutation
from .ring import INV_SQRT2, ONE, ZERO, RingScalar
from .words import (
    Letter,
    evaluate_letters,
    z0s_relators,
    zs_relators,
)

ENUMERATION_MAX_K = 5


class EnumerationLimitError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Signed permutation representation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SignedPerm:
    """A unitary with exactly one +-1 entry per row and column.

    Column x holds sign[x] at row dest[x]; composition is exact.
    """

    dim: int
    dest: tuple[int, ...]
    sign: tuple[int, ...]

    @staticmethod
    def identity(dim: int) -> "SignedPerm":
        return SignedPerm(dim, tuple(range(dim)), (1,) * dim)

    def compose(self, other: "SignedPerm") -> "SignedPerm":
        """Matrix product self * other (other acts first)."""
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        dest = tuple(self.dest[d] for d in other.dest)
        sign = tuple(s * self.sign[d] for d, s in zip(other.dest, other.sign))
        return SignedPerm(self.dim, dest, sign)

    def is_identity(self) -> bool:
        return all(d == x for x, d in enumerate(self.dest)) and all(s == 1 for s in self.sign)

    def to_matrix(self) -> "RingMatrix":
        rows = [[ZERO] * self.dim for _ in range(self.dim)]
        for col, (d, s) in enumerate(zip(self.dest, self.sign)):
            rows[d][col] = RingScalar(s)
        return RingMatrix(self.dim, tuple(tuple(r) for r in rows))


def _permute_bits(x: int, perm: Permutation) -> int:
    y = 0
    for i in range(perm.k):
        if (x >> i) & 1:
            y |= 1 << perm(i)
    return y


def signed_perm_of(nf: NormalForm) -> SignedPerm:
    """Exact matrix of Z_E S_sigma: permute index bits by sigma, then flip the
    sign when an even/odd count of phase pairs sees two set bits."""
    dim = 1 << nf.k
    dest = tuple(_permute_bits(x, nf.perm) for x in range(dim))
    sign = tuple(nf.phase.sign_at(d) for d in dest)
    return SignedPerm(dim, dest, sign)


# ---------------------------------------------------------------------------
# Dense exact matrices for circuits with H / X
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RingMatrix:
    dim: int
    rows: tuple[tuple[RingScalar, ...], ...]

    @staticmethod
    def identity(dim: int) -> "RingMatrix":
        return RingMatrix(
            dim,
            tuple(tuple(ONE if r == c else ZERO for c in range(dim)) for r in range(dim)),
        )

    def __mul__(self, other: "RingMatrix") -> "RingMatrix":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        cols = list(zip(*other.rows))
        out = tuple(
            tuple(sum((a * b for a, b in zip(row, col)), ZERO) for col in cols)
            for row in self.rows
        )
        return RingMatrix(self.dim, out)

    def dagger(self) -> "RingMatrix":
        return RingMatrix(
            self.dim,
            tuple(tuple(self.rows[c][r].conjugate() for c in range(self.dim)) for r in range(self.dim)),
        )

    def is_identity(self) -> bool:
        return all(
            entry == (ONE if r == c else ZERO)
            for r, row in enumerate(self.rows)
            for c, entry in enumerate(row)
        )

    def is_unitary(self) -> bool:
        return (self * self.dagger()).is_identity()


def _apply_gate_rows(rows: list[list[RingScalar]], gate, k: int) -> None:
    """Left-multiply the matrix (given as mutable rows) by one gate."""
    name, qubits = gate.name, gate.qubits
    dim = 1 << k
    if name == "cz":
        bi, bj = 1 << qubits[0], 1 << qubits[1]
        for r in range(dim):
            if r & bi and r & bj:
                rows[r] = [-e for e in rows[r]]
    elif name == "swap":
        bi, bj = 1 << qubits[0], 1 << qubits[1]
        for r in range(dim):
            if r & bi and not r & bj:
                p = (r ^ bi) | bj
                rows[r], rows[p] = rows[p], rows[r]
    elif name == "x":
        b = 1 << qubits[0]
        for r in range(dim):
            if not r & b:
                rows[r], rows[r | b] = rows[r | b], rows[r]
    elif name == "h":
        b = 1 << qubits[0]
        for r in range(dim):
            if not r & b:
                top, bot = rows[r], rows[r | b]
                rows[r] = [(a + c) * INV_SQRT2 for a, c in zip(top, bot)]
                rows[r | b] = [(a - c) * INV_SQRT2 for a, c in zip(top, bot)]
    else:
        raise ValueError(f"unsupported gate {name!r}")


def circuit_unitary(c: Circuit) -> RingMatrix:
    """Exact operator of the circuit: the gate matrices multiplied right to
    left, i.e. the first gate in file order acts first on the state."""
    rows = [
        [ONE if r == col else ZERO for col in range(1 << c.k)] for r in range(1 << c.k)
    ]
    for gate in c.gates:
        _apply_gate_rows(rows, gate, c.k)
    return RingMatrix(1 << c.k, tuple(tuple(r) for r in rows))


def apply_circuit(c: Circuit, amps: list[RingScalar]) -> list[RingScalar]:
    """Apply the circuit to an exact amplitude vector (basis index order)."""
    if len(amps) != 1 << c.k:
        raise ValueError("amplitude vector has wrong dimension")
    cols = [[a] for a in amps]
    for gate in c.gates:
        _apply_gate_rows(cols, gate, c.k)
    return [col[0] for col in cols]


def equivalent(c1: Circuit, c2: Circuit) -> bool:
    """Exact unitary equality (no global-phase allowance)."""
    if c1.k != c2.k:
        raise ValueError(f"qubit counts differ: {c1.k} vs {c2.k}")
    if c1.is_phase_swap_only() and c2.is_phase_swap_only():
        from .optimize import normalize

        return signed_perm_of(normalize(c1)) == signed_perm_of(normalize(c2))
    return circuit_unitary(c1) == circuit_unitary(c2)


# ---------------------------------------------------------------------------
# Group enumeration by breadth-first closure over normal forms
# ---------------------------------------------------------------------------


@dataclass
class GroupEnumeration:
    """BFS closure of the group over a generator alphabet.

    States are normal forms encoded as perm_index * 2**npairs + phase_mask.
    dist[s] is the generator-distance from the identity and parent[s] the
    last generator on one shortest word, enabling exact minimal words.
    """

    k: int
    topology: Topology
    order: int
    diameter: int
    generators: list[Letter]
    _dist: bytearray
    _parent: bytearray
    _perm_index: dict[tuple[int, ...], int]
    _pair_index: dict[tuple[int, int], int]
    _gen_tables: list = field(repr=False, default_factory=list)

    def encode(self, nf: NormalForm) -> int:
        pmask = 0
        for pair in nf.phase.pairs:
            pmask |= 1 << self._pair_index[pair]
        return self._perm_index[nf.perm.images] * (1 << len(self._pair_index)) + pmask

    def distance(self, nf: NormalForm) -> int:
        return self._dist[self.encode(nf)]

    def minimal_word_letters(self, nf: NormalForm) -> list[Letter]:
        state = self.encode(nf)
        letters: list[Letter] = []
        while self._dist[state]:
            g = self._parent[state]
            letters.append(self.generators[g])
            state = self._gen_tables[g](state)  # generators are involutions
        letters.reverse()
        return letters


_ENUM_CACHE: dict[tuple[int, Topology], GroupEnumeration] = {}


def enumerate_group(k: int, topology: Topology = Topology.COMPLETE) -> GroupEnumeration:
    """Breadth-first closure of the group of c-Z and SWAP words on k qubits.

    Capped at k = 5: the order k! * 2**(k choose 2) reaches 122880 there and
    6! * 2**15 = 23,592,960 at k = 6, beyond desk-scale enumeration.
    """
    if k < 2:
        raise ValueError("need at least two qubits")
    if k > ENUMERATION_MAX_K:
        raise EnumerationLimitError(
            f"enumeration is capped at k={ENUMERATION_MAX_K}: the group order "
            f"k!*2^(k(k-1)/2) grows too fast (k={k} would need "
            f"{_order_formula(k)} normal forms)"
        )
    key = (k, topology)
    cached = _ENUM_CACHE.get(key)
    if cached is not None:
        return cached

    perms = sorted(permutations(range(k)))
    perm_index = {p: i for i, p in enumerate(perms)}
    pairs = list(combinations(range(k), 2))
    pair_index = {p: i for i, p in enumerate(pairs)}
    npairs = len(pairs)
    mask_bits = 1 << npairs

    # image of each pair under each permutation, as pair indices
    pair_image = [
        [pair_index[tuple(sorted((p[a], p[b])))] for (a, b) in pairs] for p in perms
    ]

    if topology is Topology.LINE:
        gen_pairs = [(i, i + 1) for i in range(k - 1)]
    else:
        gen_pairs = pairs
    generators: list[Letter] = sorted(
        [("s", i, j) for (i, j) in gen_pairs] + [("z", i, j) for (i, j) in gen_pairs]
    )

    # Right-multiplication tables, state -> state * generator.  An s-step
    # composes the permutation on the right ((p o tau).images swaps the
    # entries at positions i, j); a z-step toggles the phase pair carried to
    # its image under the state's own permutation.
    nb = npairs
    gen_tables = []
    for kind, i, j in generators:
        if kind == "s":
            table = []
            for p in perms:
                q = list(p)
                q[i], q[j] = q[j], q[i]
                table.append(perm_index[tuple(q)] * mask_bits)
            ptab = tuple(table)
            gen_tables.append(
                lambda state, ptab=ptab, nb=nb, mask=mask_bits - 1: ptab[state >> nb]
                | (state & mask)
            )
        else:
            pj = pair_index[(i, j)]
            ztab = tuple(1 << row[pj] for row in pair_image)
            gen_tables.append(
                lambda state, ztab=ztab, nb=nb: state ^ ztab[state >> nb]
            )

    nstates = len(perms) * mask_bits
    dist = bytearray([255]) * nstates
    parent = bytearray(nstates)
    start = perm_index[tuple(range(k))] * mask_bits  # identity
    dist[start] = 0
    frontier = [start]
    reached = 1
    depth = 0
    while frontier:
        depth += 1
        nxt = []
        for state in frontier:
            for g, step in enumerate(gen_tables):
                t = step(state)
                if dist[t] == 255:
                    dist[t] = depth
                    parent[t] = g
                    nxt.append(t)
                    reached += 1
        frontier = nxt
    diameter = depth - 1

    enum = GroupEnumeration(
        k=k,
        topology=topology,
        order=reached,
        diameter=diameter,
        generators=generators,
        _dist=dist,
        _parent=parent,
        _perm_index=perm_index,
        _pair_index=pair_index,
        _gen_tables=gen_tables,
    )
    _ENUM_CACHE[key] = enum
    return enum


def _order_formula(k: int) -> int:
    return math.factorial(k) * 2 ** (k * (k - 1) // 2)


def group_order(k: int, topology: Topology = Topology.COMPLETE) -> int:
    return enumerate_group(k, topology).order


# ---------------------------------------------------------------------------
# Presentation verification
# ---------------------------------------------------------------------------


class Presentation(Enum):
    ZS = "zs"    # generators z_i and s_i, seven relation families
    Z0S = "z0s"  # generators z_0 and the s_i, six relation families


def verify_presentation(k: int, which: Presentation) -> bool:
    """True iff every relator maps to the identity normal form under the
    explicit realisation of the presentation's generators."""
    if which is Presentation.ZS:
        relators = zs_relators(k)
    elif which is Presentation.Z0S:
        relators = z0s_relators(k)
    else:
        raise ValueError(f"unknown presentation {which!r}")
    return all(evaluate_letters(k, r).is_identity() for r in relators)
