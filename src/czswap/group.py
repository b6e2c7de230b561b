"""Normal forms (E, sigma) for the finite group generated by c-Z and SWAP gates.

Every element factors uniquely as a diagonal phase part Z_E (E a set of qubit
pairs, multiplying as symmetric difference) times a qubit permutation S_sigma.
The product law is

    (E, sigma) * (E', sigma') = (E xor sigma(E'), sigma o sigma')

Composition convention, used consistently across the package:
(sigma o tau)(i) = sigma(tau(i)), i.e. tau acts first.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations


@dataclass(frozen=True)
class Permutation:
    """A bijection of {0, ..., k-1}, stored as its image sequence."""

    k: int
    images: tuple[int, ...]

    def __post_init__(self):
        if len(self.images) != self.k or sorted(self.images) != list(range(self.k)):
            raise ValueError(f"not a permutation of 0..{self.k - 1}: {self.images}")

    @staticmethod
    def identity(k: int) -> "Permutation":
        return Permutation(k, tuple(range(k)))

    @staticmethod
    def transposition(k: int, i: int, j: int) -> "Permutation":
        if i == j:
            raise ValueError("transposition needs two distinct points")
        images = list(range(k))
        images[i], images[j] = j, i
        return Permutation(k, tuple(images))

    @staticmethod
    def from_cycles(k: int, *cycles) -> "Permutation":
        images = list(range(k))
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + (cyc[0],)):
                images[a] = b
        return Permutation(k, tuple(images))

    def __call__(self, i: int) -> int:
        return self.images[i]

    def compose(self, other: "Permutation") -> "Permutation":
        """self o other: other acts first."""
        if self.k != other.k:
            raise ValueError("size mismatch")
        return Permutation(self.k, tuple(self.images[other.images[i]] for i in range(self.k)))

    def inverse(self) -> "Permutation":
        inv = [0] * self.k
        for i, im in enumerate(self.images):
            inv[im] = i
        return Permutation(self.k, tuple(inv))

    def is_identity(self) -> bool:
        return all(im == i for i, im in enumerate(self.images))

    def inversions(self) -> int:
        return sum(
            1
            for a, b in combinations(range(self.k), 2)
            if self.images[a] > self.images[b]
        )

    def cycles(self) -> list[tuple[int, ...]]:
        """Non-trivial cycles, each starting at its smallest point, sorted."""
        seen = [False] * self.k
        out = []
        for start in range(self.k):
            if seen[start] or self.images[start] == start:
                seen[start] = True
                continue
            cyc = [start]
            seen[start] = True
            nxt = self.images[start]
            while nxt != start:
                cyc.append(nxt)
                seen[nxt] = True
                nxt = self.images[nxt]
            out.append(tuple(cyc))
        return out

    def order(self) -> int:
        import math

        return math.lcm(*(len(c) for c in self.cycles())) if self.cycles() else 1


def canonical_pair(i: int, j: int) -> tuple[int, int]:
    if i == j:
        raise ValueError(f"pair must join two distinct qubits, got {{{i},{i}}}")
    return (i, j) if i < j else (j, i)


@dataclass(frozen=True)
class PairSet:
    """A set of unordered qubit pairs; the phase part Z_E of a normal form."""

    k: int
    pairs: frozenset[tuple[int, int]]

    def __post_init__(self):
        for i, j in self.pairs:
            if not (0 <= i < j < self.k):
                raise ValueError(f"pair {{{i},{j}}} invalid for k={self.k}")

    @staticmethod
    def empty(k: int) -> "PairSet":
        return PairSet(k, frozenset())

    @staticmethod
    def of(k: int, pairs) -> "PairSet":
        return PairSet(k, frozenset(canonical_pair(i, j) for i, j in pairs))

    @staticmethod
    def complete(k: int) -> "PairSet":
        return PairSet(k, frozenset(combinations(range(k), 2)))

    def __xor__(self, other: "PairSet") -> "PairSet":
        if self.k != other.k:
            raise ValueError("size mismatch")
        return PairSet(self.k, self.pairs ^ other.pairs)

    def __len__(self):
        return len(self.pairs)

    def __contains__(self, pair):
        return canonical_pair(*pair) in self.pairs

    def __iter__(self):
        return iter(sorted(self.pairs))

    def sign_at(self, index: int) -> int:
        """Diagonal entry of Z_E at basis index: -1 to the number of pairs
        whose two bits of the index are both 1."""
        count = 0
        for i, j in self.pairs:
            if (index >> i) & 1 and (index >> j) & 1:
                count += 1
        return -1 if count & 1 else 1


def conjugate_pairs(sigma: Permutation, e: PairSet) -> PairSet:
    """Image sigma(E) = {{sigma(i), sigma(j)}}: conjugation of Z_E by S_sigma."""
    if sigma.k != e.k:
        raise ValueError(f"size mismatch: permutation on {sigma.k}, pairs on {e.k}")
    return PairSet.of(e.k, ((sigma(i), sigma(j)) for i, j in e.pairs))


@dataclass(frozen=True)
class NormalForm:
    """Unique representative (E, sigma) of a group element Z_E * S_sigma."""

    phase: PairSet
    perm: Permutation

    def __post_init__(self):
        if self.phase.k != self.perm.k:
            raise ValueError("phase and permutation disagree on qubit count")

    @property
    def k(self) -> int:
        return self.perm.k

    @staticmethod
    def identity(k: int) -> "NormalForm":
        return NormalForm(PairSet.empty(k), Permutation.identity(k))

    @staticmethod
    def z(k: int, i: int, j: int) -> "NormalForm":
        return NormalForm(PairSet.of(k, [(i, j)]), Permutation.identity(k))

    @staticmethod
    def s(k: int, i: int, j: int) -> "NormalForm":
        return NormalForm(PairSet.empty(k), Permutation.transposition(k, i, j))

    def is_identity(self) -> bool:
        return not self.phase.pairs and self.perm.is_identity()

    def __mul__(self, other: "NormalForm") -> "NormalForm":
        return nf_product(self, other)


def nf_product(a: NormalForm, b: NormalForm) -> NormalForm:
    """(E, s)(E', s') = (E xor s(E'), s o s')."""
    if a.k != b.k:
        raise ValueError(f"size mismatch: {a.k} vs {b.k}")
    return NormalForm(a.phase ^ conjugate_pairs(a.perm, b.phase), a.perm.compose(b.perm))


def nf_inverse(a: NormalForm) -> NormalForm:
    """(sigma^-1(E), sigma^-1); the Z part is an involution."""
    inv = a.perm.inverse()
    return NormalForm(conjugate_pairs(inv, a.phase), inv)


def nf_power(a: NormalForm, n: int) -> NormalForm:
    if n < 0:
        return nf_power(nf_inverse(a), -n)
    out = NormalForm.identity(a.k)
    base = a
    while n:
        if n & 1:
            out = nf_product(out, base)
        base = nf_product(base, base)
        n >>= 1
    return out
