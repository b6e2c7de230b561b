"""Independent checkers for the benchmark's outputs.

Nothing here imports czswap: every check recomputes what it needs with its
own exact arithmetic, so a fault in the program cannot hide in its checker.

* ``QS`` values are 4-tuples (a, b, c, d) of Fractions meaning
  (a + b*sqrt2) + i*(c + d*sqrt2).
* Graphs on n vertices are edge bitmasks over ``pairs(n)``, the pairs (i, j),
  i < j, in lexicographic order (the order the benchmark draws them in).
* Circuits are ``(k, [(name, qubits), ...])``; the first gate acts first and
  qubit q is bit q of a basis index.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations

ZERO = Fraction(0)
ONE = Fraction(1)

# ---------------------------------------------------------------------------
# Exact Q(i)[sqrt2] arithmetic
# ---------------------------------------------------------------------------


def qs(a=0, b=0, c=0, d=0):
    return (Fraction(a), Fraction(b), Fraction(c), Fraction(d))


QZERO = qs()
QONE = qs(1)


def qs_add(x, y):
    return (x[0] + y[0], x[1] + y[1], x[2] + y[2], x[3] + y[3])


def qs_neg(x):
    return (-x[0], -x[1], -x[2], -x[3])


def qs_mul(x, y):
    a, b, c, d = x
    e, f, g, h = y
    if not (b or c or d or f or g or h):
        return (a * e, ZERO, ZERO, ZERO)
    return (
        a * e + 2 * b * f - c * g - 2 * d * h,
        a * f + b * e - c * h - d * g,
        a * g + 2 * b * h + c * e + 2 * d * f,
        a * h + b * g + c * f + d * e,
    )


def qs_is_zero(x):
    return not (x[0] or x[1] or x[2] or x[3])


def parse_qs(text: str):
    """Parse the printed form 'p/q + r/s*sqrt2 + i*(...)' of an exact scalar."""
    text = text.strip()
    if text.startswith("i*(") and text.endswith(")"):
        re_text, im_text = "0", text[3:-1]
    elif " + i*(" in text and text.endswith(")"):
        re_text, im_text = text.split(" + i*(", 1)
        im_text = im_text[:-1]
    else:
        re_text, im_text = text, "0"

    def real(part_text):
        rational, surd = ZERO, ZERO
        for part in part_text.split(" + "):
            if part.endswith("sqrt2"):
                coeff = part[: -len("sqrt2")].rstrip("*")
                surd += Fraction(coeff) if coeff else ONE
            else:
                rational += Fraction(part)
        return rational, surd

    a, b = real(re_text)
    c, d = real(im_text)
    return (a, b, c, d)


# ---------------------------------------------------------------------------
# Graphs and isomorphism by relabeling
# ---------------------------------------------------------------------------


def pairs(n: int):
    return list(combinations(range(n), 2))


def edges_of(mask: int, n: int):
    return [p for i, p in enumerate(pairs(n)) if (mask >> i) & 1]


def mask_of(edges, n: int) -> int:
    index = {p: i for i, p in enumerate(pairs(n))}
    mask = 0
    for i, j in edges:
        mask |= 1 << index[(min(i, j), max(i, j))]
    return mask


def complement(mask: int, n: int) -> int:
    return ((1 << len(pairs(n))) - 1) ^ mask


class Relabeler:
    """Canonical form of n-vertex graphs: the least edge mask over all n!
    vertex relabelings."""

    def __init__(self, n: int):
        self.n = n
        plist = pairs(n)
        index = {p: i for i, p in enumerate(plist)}
        self._maps = []
        for perm in permutations(range(n)):
            self._maps.append(
                [1 << index[tuple(sorted((perm[i], perm[j])))] for i, j in plist]
            )
        self._cache: dict[int, int] = {}

    def canonical(self, mask: int) -> int:
        key = self._cache.get(mask)
        if key is not None:
            return key
        bits = [i for i in range(len(self._maps[0])) if (mask >> i) & 1]
        best = None
        for images in self._maps:
            m = 0
            for i in bits:
                m |= images[i]
            if best is None or m < best:
                best = m
        self._cache[mask] = best
        return best


# The three five-qubit edge classes whose ground-form system has no
# nontrivial solution at generic parameters, with their labelled-graph counts.
NONSINGULAR_5Q = {
    "5-cycle": (mask_of([(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)], 5), 12),
    "complement of the 5-path": (
        complement(mask_of([(0, 1), (1, 2), (2, 3), (3, 4)], 5), 5), 60),
    "complement of {{0,1},{0,2},{1,3}}": (
        complement(mask_of([(0, 1), (0, 2), (1, 3)], 5), 5), 60),
}


def nonsingular_masks(relabeler: Relabeler) -> dict[str, set[int]]:
    """All labelled five-vertex graphs in each nonsingular class; raises if a
    class size differs from its labelled-graph count."""
    keys = {relabeler.canonical(m): name for name, (m, _) in NONSINGULAR_5Q.items()}
    found = {name: set() for name in NONSINGULAR_5Q}
    for mask in range(1 << 10):
        name = keys.get(relabeler.canonical(mask))
        if name is not None:
            found[name].add(mask)
    for name, (_, count) in NONSINGULAR_5Q.items():
        if len(found[name]) != count:
            raise AssertionError(f"{name}: {len(found[name])} labelled graphs, want {count}")
    return found


# Four-vertex graph types and their case numbers in the 11-case table.
CASES_4Q = {
    1: [],
    2: [(0, 1)],
    3: [(0, 1), (1, 2)],
    4: [(0, 1), (2, 3)],
    5: [(0, 1), (1, 2), (0, 2)],
    6: [(0, 1), (1, 2), (2, 3)],
    7: [(0, 1), (0, 2), (0, 3)],
    8: [(0, 1), (1, 2), (0, 2), (2, 3)],
    9: [(0, 1), (1, 2), (2, 3), (0, 3)],
    10: [p for p in pairs(4) if p != (0, 1)],
    11: pairs(4),
}

# Covariants that vanish identically on each case's family.
VANISHING_4Q = {7: ("K3", "L"), 8: ("K3", "L"), 9: ("K3", "L"), 10: ("K3", "L"),
                11: ("Gbar", "G", "H", "L")}


class CaseTable:
    def __init__(self):
        self.relabeler = Relabeler(4)
        self._case = {self.relabeler.canonical(mask_of(e, 4)): c for c, e in CASES_4Q.items()}
        if len(self._case) != 11:
            raise AssertionError("the 11 four-vertex graph types are not distinct")

    def case(self, mask: int) -> int:
        return self._case[self.relabeler.canonical(mask)]


# ---------------------------------------------------------------------------
# Phase-graph product states
# ---------------------------------------------------------------------------


def phase_sign(mask: int, n: int, index: int) -> int:
    sign = 1
    for i, j in edges_of(mask, n):
        if (index >> i) & 1 and (index >> j) & 1:
            sign = -sign
    return sign


def amplitudes(mask: int, params) -> list:
    """Amplitude n of Z_E on the product state: the phase sign times
    prod_q params[q][bit_q(n)]; params are QS pairs, one per qubit."""
    n = len(params)
    out = []
    for index in range(1 << n):
        a = QONE
        for q in range(n):
            a = qs_mul(a, params[q][(index >> q) & 1])
        out.append(qs_neg(a) if phase_sign(mask, n, index) < 0 else a)
    return out


def witness_problem(amps, solution):
    """None if the ground form sum_n amps[n] prod_q x_q[bit_q(n)] and all its
    2k first partials vanish at the solution and no pair is (0, 0); else a
    description of the first failure."""
    k = len(solution)
    if len(amps) != 1 << k:
        return f"{len(solution)} solution pairs for {len(amps)} amplitudes"
    for q, (v0, v1) in enumerate(solution):
        if qs_is_zero(v0) and qs_is_zero(v1):
            return f"pair {q} is (0, 0)"
    form = QZERO
    partial = {(q, c): QZERO for q in range(k) for c in (0, 1)}
    for index, amp in enumerate(amps):
        if qs_is_zero(amp):
            continue
        bits = [(index >> q) & 1 for q in range(k)]
        # prefix[q] = amp * prod_{r<q} x_r, suffix[q] = prod_{r>=q} x_r
        prefix = [amp]
        for q in range(k):
            prefix.append(qs_mul(prefix[-1], solution[q][bits[q]]))
        suffix = [QONE] * (k + 1)
        for q in range(k - 1, -1, -1):
            suffix[q] = qs_mul(suffix[q + 1], solution[q][bits[q]])
        form = qs_add(form, prefix[k])
        for q in range(k):
            key = (q, bits[q])
            partial[key] = qs_add(partial[key], qs_mul(prefix[q], suffix[q + 1]))
    if not qs_is_zero(form):
        return "the form does not vanish"
    for (q, c), value in partial.items():
        if not qs_is_zero(value):
            return f"the partial in x{q}_{c} does not vanish"
    return None


# ---------------------------------------------------------------------------
# Four-qubit invariants
# ---------------------------------------------------------------------------


def det(m):
    """Exact determinant by fraction-free elimination with pivoting."""
    a = [list(row) for row in m]
    n = len(a)
    sign = 1
    prev = ONE
    for c in range(n):
        pivot = next((r for r in range(c, n) if a[r][c]), None)
        if pivot is None:
            return ZERO
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            sign = -sign
        for r in range(c + 1, n):
            for j in range(c + 1, n):
                a[r][j] = (a[r][j] * a[c][c] - a[r][c] * a[c][j]) / prev
            a[r][c] = ZERO
        prev = a[c][c]
    return sign * a[n - 1][n - 1]


def _a4(amps, i, j, k, l):
    """Amplitude of |ijkl> with i on qubit 3 down to l on qubit 0."""
    return amps[(i << 3) | (j << 2) | (k << 1) | l]


def invariants_blm(amps):
    """B, L and M of a four-qubit state with rational amplitudes (Luque and
    Thibon's generators)."""
    b = ZERO
    for n in range(8):
        i1, i2, i3 = (n >> 2) & 1, (n >> 1) & 1, n & 1
        term = _a4(amps, 0, i1, i2, i3) * _a4(amps, 1, 1 - i1, 1 - i2, 1 - i3)
        b += -term if (i1 + i2 + i3) % 2 else term
    # rows and columns run over bit pairs in the order 00, 10, 01, 11
    l_mat = [[_a4(amps, r & 1, r >> 1, c & 1, c >> 1) for c in range(4)] for r in range(4)]
    m_mat = [[_a4(amps, r & 1, c >> 1, r >> 1, c & 1) for c in range(4)] for r in range(4)]
    return b, det(l_mat), det(m_mat)


def quartic_discriminant(c4, c3, c2, c1, c0):
    """Discriminant of c4 x^4 + c3 x^3 y + c2 x^2 y^2 + c1 x y^3 + c0 y^4."""
    a, b, c, d, e = c4, c3, c2, c1, c0
    return (
        256 * a**3 * e**3 - 192 * a**2 * b * d * e**2 - 128 * a**2 * c**2 * e**2
        + 144 * a**2 * c * d**2 * e - 27 * a**2 * d**4 + 144 * a * b**2 * c * e**2
        - 6 * a * b**2 * d**2 * e - 80 * a * b * c**2 * d * e + 18 * a * b * c * d**3
        + 16 * a * c**4 * e - 4 * a * c**3 * d**2 - 27 * b**4 * e**2
        + 18 * b**3 * c * d * e - 4 * b**3 * d**3 - 4 * b**2 * c**3 * e + b**2 * c**2 * d**2
    )


def first_quartic(b, l, m, dxy):
    """Plain coefficients of the first quartic built from B, L, M, D_xy."""
    return (ONE, -2 * b, b * b + 2 * l + 4 * m, 4 * dxy - 4 * b * m - 2 * b * l, l * l)


def phi4_problem(mask, params, result, table: CaseTable):
    """Check a four-qubit classification: `result` carries case, B, L, M,
    Dxy (rationals), confirmations_ok and the vanishing covariants by name."""
    case = table.case(mask)
    if result["case"] != case:
        return f"case {result['case']}, expected {case}"
    amps = [x[0] for x in amplitudes(mask, params)]
    b, l, m = invariants_blm(amps)
    for name, mine in (("B", b), ("L", l), ("M", m)):
        if result[name] != mine:
            return f"{name} = {result[name]}, expected {mine}"
    if l * m * (-l - m) != 0:
        return "L*M*N does not vanish"
    if quartic_discriminant(*first_quartic(b, l, m, result["Dxy"])) != 0:
        return "the first quartic has a nonzero discriminant"
    if not result["confirmations_ok"]:
        return "confirmations failed"
    for name in VANISHING_4Q.get(case, ()):
        if name not in result["vanishing"]:
            return f"covariant {name} should vanish in case {case}"
    return None


def cayley_hyperdet(amps):
    """Cayley's 2x2x2 hyperdeterminant of a three-qubit state; amps[n] with
    n = 4*i + 2*j + k."""
    a = lambda i, j, k: amps[4 * i + 2 * j + k]
    return (
        a(0, 0, 0) ** 2 * a(1, 1, 1) ** 2 + a(0, 0, 1) ** 2 * a(1, 1, 0) ** 2
        + a(0, 1, 0) ** 2 * a(1, 0, 1) ** 2 + a(1, 0, 0) ** 2 * a(0, 1, 1) ** 2
        - 2 * (a(0, 0, 0) * a(0, 0, 1) * a(1, 1, 0) * a(1, 1, 1)
               + a(0, 0, 0) * a(0, 1, 0) * a(1, 0, 1) * a(1, 1, 1)
               + a(0, 0, 0) * a(1, 0, 0) * a(0, 1, 1) * a(1, 1, 1)
               + a(0, 0, 1) * a(0, 1, 0) * a(1, 0, 1) * a(1, 1, 0)
               + a(0, 0, 1) * a(1, 0, 0) * a(0, 1, 1) * a(1, 1, 0)
               + a(0, 1, 0) * a(1, 0, 0) * a(0, 1, 1) * a(1, 0, 1))
        + 4 * (a(0, 0, 0) * a(0, 1, 1) * a(1, 0, 1) * a(1, 1, 0)
               + a(0, 0, 1) * a(0, 1, 0) * a(1, 0, 0) * a(1, 1, 1))
    )


# ---------------------------------------------------------------------------
# c-Z/SWAP circuits as signed permutations
# ---------------------------------------------------------------------------


def signed_action(k: int, gates):
    """For each basis index x, (y, s) with U|x> = s|y>; gates are c-Z or SWAP."""
    out = []
    for x in range(1 << k):
        y, s = x, 1
        for name, qubits in gates:
            i, j = qubits
            bi, bj = (y >> i) & 1, (y >> j) & 1
            if name == "cz":
                if bi and bj:
                    s = -s
            elif name == "swap":
                if bi != bj:
                    y ^= (1 << i) | (1 << j)
            else:
                raise ValueError(f"{name} is not a c-Z/SWAP gate")
        out.append((y, s))
    return tuple(out)


def same_action(k: int, gates_a, gates_b) -> bool:
    return signed_action(k, gates_a) == signed_action(k, gates_b)


def on_line(gates) -> bool:
    return all(abs(q[0] - q[1]) == 1 for _, q in gates)


def parse_circuit_text(text: str):
    """(k, gates) from the circuit text format."""
    k = None
    gates = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if k is None:
            if tokens[0] != "qubits":
                raise ValueError(f"bad header {line!r}")
            k = int(tokens[1])
            continue
        gates.append((tokens[0], tuple(int(t) for t in tokens[1:])))
    if k is None:
        raise ValueError("no header")
    return k, gates


def circuit_text(k: int, gates) -> str:
    return "\n".join([f"qubits {k}"] + [f"{n} {' '.join(map(str, q))}" for n, q in gates]) + "\n"


# ---------------------------------------------------------------------------
# CLI output
# ---------------------------------------------------------------------------


def report_fields(text: str) -> dict[str, str]:
    fields = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep and key not in fields:
            fields[key] = value
    return fields


def parse_pair_list(text: str):
    """'(a, b); (c, d)' -> [(QS, QS), ...]."""
    out = []
    for item in text.split("; "):
        body = item.strip()
        if not (body.startswith("(") and body.endswith(")")):
            raise ValueError(f"bad pair {item!r}")
        first, second = body[1:-1].split(", ")
        out.append((parse_qs(first), parse_qs(second)))
    return out
