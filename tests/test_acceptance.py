"""Acceptance suite: one test per criterion, each printing a pass line and
enforcing its stated runtime budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.
"""

import random
import time
from fractions import Fraction
from itertools import combinations

from czswap.circuit import Circuit, Topology, cz, swap
from czswap.four_qubit import (
    covariants4,
    graph_case,
    invariants4,
    quartics,
    quartics_from_invariants,
)
from czswap.five_qubit import tabulated_solution_5q
from czswap.group import NormalForm, PairSet, Permutation
from czswap.hyperdet import ghz_generic
from czswap.optimize import (
    bfs_minimize,
    dehn_reduce,
    heuristic_line_reduce,
    normalize,
    rothe_reduced_word,
    synthesize_complete,
)
from czswap.poly import MultiPoly, VarId, transvect
from czswap.ring import ONE, RingScalar
from czswap.simulate import (
    Presentation,
    enumerate_group,
    equivalent,
    signed_perm_of,
    verify_presentation,
)
from czswap.states import (
    PureState,
    g_abcd_state,
    ghz_circuit,
    named_state,
    phi_state,
    random_params,
    run_on_zero_state,
)
from czswap.three_qubit import Class3, catalecticant3, classify3, crossing_example_state, delta3
from czswap.words import GeneratorWord, evaluate_letters, s_letter, z_letter


class Budget:
    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds
        self.start = time.monotonic()

    def done(self, detail: str = ""):
        elapsed = time.monotonic() - self.start
        assert elapsed < self.seconds, (
            f"{self.name} took {elapsed:.1f}s, budget {self.seconds}s"
        )
        suffix = f" ({detail})" if detail else ""
        print(f"{self.name}: PASS in {elapsed:.2f}s{suffix}")


def test_criterion_01_group_orders():
    budget = Budget("criterion 1 (group orders 4, 48, 1536, 122880)", 30)
    expected = {2: 4, 3: 48, 4: 1536, 5: 122880}
    for k, want in expected.items():
        assert enumerate_group(k).order == want
    budget.done("k=2..5 complete-graph closure")


def test_criterion_02_presentations():
    budget = Budget("criterion 2 (presentation relators map to identity)", 5)
    for k in range(3, 7):
        assert verify_presentation(k, Presentation.ZS)
        assert verify_presentation(k, Presentation.Z0S)
    mutated = (z_letter(0), s_letter(1)) * 3
    assert not evaluate_letters(3, mutated).is_identity()
    budget.done("k=3..6 both presentations; mutated relator rejected")


def test_criterion_03_ctozs_golden():
    budget = Budget("criterion 3 (normal form of the worked operator)", 1)
    gates = (swap(1, 2), cz(0, 1), cz(0, 2), swap(1, 2), cz(0, 1), cz(1, 2), swap(0, 1))
    circuit = Circuit(3, gates)
    nf = normalize(circuit)
    assert nf.phase == PairSet.of(3, [(0, 2), (1, 2)])
    assert nf.perm == Permutation.from_cycles(3, (0, 1))
    out = synthesize_complete(nf)
    assert len(out.gates) == 3
    assert equivalent(circuit, out)
    budget.done("7 gates -> 3 gates, oracle-equal")


def test_criterion_04_normalize_resynthesize_500_random():
    budget = Budget("criterion 4 (500 random circuits round trip)", 60)
    rng = random.Random(2024)
    for _ in range(500):
        k = rng.randint(2, 5)
        length = rng.randint(0, 30)
        gates = []
        for _ in range(length):
            i, j = rng.sample(range(k), 2)
            gates.append(cz(i, j) if rng.random() < 0.5 else swap(i, j))
        circuit = Circuit(k, tuple(gates))
        nf = normalize(circuit)
        out = synthesize_complete(nf)
        assert signed_perm_of(normalize(out)) == signed_perm_of(nf)
        bound = len(nf.phase) + (k - 1)
        if length > bound:
            assert len(out.gates) <= length
    budget.done()


def test_criterion_05_rothe():
    budget = Budget("criterion 5 (reduced words from the inversion diagram)", 5)
    sigma = Permutation.from_cycles(5, (0, 3), (2, 4))
    assert rothe_reduced_word(sigma).tokens() == "s2 s1 s0 s1 s3 s2"
    rng = random.Random(515)
    for _ in range(1000):
        k = rng.randint(2, 8)
        images = list(range(k))
        rng.shuffle(images)
        tau = Permutation(k, tuple(images))
        word = rothe_reduced_word(tau)
        assert len(word) == tau.inversions()
        assert word.evaluate() == NormalForm(PairSet.empty(k), tau)
    budget.done("golden word + 1000 random permutations")


def test_criterion_06_dehn_and_heuristic():
    budget = Budget("criterion 6 (Dehn goldens, heuristic, BFS confirmation)", 30)
    w1 = GeneratorWord.from_tokens(5, "z0 z3 s1 s0 z1 z3 s0")
    assert dehn_reduce(w1).tokens() == "s1"
    w2 = GeneratorWord.from_tokens(5, "s3 s2 z1 s2 s3 s2 z1 s2")
    assert dehn_reduce(w2) == w2  # Dehn fixpoint
    reduced = heuristic_line_reduce(w2, budget=4000)
    assert len(reduced) == 6
    assert reduced.evaluate() == w2.evaluate()
    minimal = bfs_minimize(w2.evaluate(), Topology.LINE)
    assert len(minimal) == 6  # no shorter word exists
    budget.done(f"heuristic found {reduced.tokens()!r}; BFS minimum 6")


def test_criterion_07_ghz_synthesis():
    budget = Budget("criterion 7 (GHZ circuits exact for k=2..6)", 5)
    for k in range(2, 7):
        assert run_on_zero_state(ghz_circuit(k)).amps == named_state("GHZ", k).amps
    budget.done()


def test_criterion_08_three_qubit_no_w():
    budget = Budget("criterion 8 (no W class from phase-graph states)", 10)
    rng = random.Random(88)
    pairs3 = list(combinations(range(3), 2))
    for mask in range(8):
        e = PairSet.of(3, [p for i, p in enumerate(pairs3) if (mask >> i) & 1])
        for _ in range(5):
            params = random_params(3, rng)
            assert classify3(phi_state(e, params)) is not Class3.W_CLASS
    assert classify3(named_state("GHZ", 3)) is Class3.GHZ_CLASS
    assert classify3(named_state("W", 3)) is Class3.W_CLASS
    budget.done("8 pair sets x 5 parameter draws")


def test_criterion_09_crossing_example():
    budget = Budget("criterion 9 (rotated state crosses into the W class)", 1)
    state = crossing_example_state()
    scale = max(1.0, max(abs(a) for a in state.amps))
    assert abs(delta3(state)) <= 1e-9 * scale
    cat = catalecticant3(state)
    assert cat.max_coeff_abs() > 1e-9 * scale
    assert classify3(state) is Class3.W_CLASS
    budget.done()


def test_criterion_10_four_qubit_sweep():
    budget = Budget("criterion 10 (64-graph sweep: LMN, disc, covariants)", 600)
    rng = random.Random(1010)
    pairs4 = list(combinations(range(4), 2))
    covariant_cases = {7: ("K3", "L"), 8: ("K3", "L"), 9: ("K3", "L"),
                       10: ("K3", "L"), 11: ("Gbar", "G", "H", "L")}
    checked = 0
    for mask in range(64):
        e = PairSet.of(4, [p for i, p in enumerate(pairs4) if (mask >> i) & 1])
        case = graph_case(e)
        for _ in range(5):
            params = random_params(4, rng)
            state = phi_state(e, params)
            inv = invariants4(state)
            assert inv.L * inv.M * inv.N == 0
            q1, _q2, _q3 = quartics_from_invariants(inv)
            assert q1.discriminant() == 0
            if case in covariant_cases:
                vanishing = covariants4(state).vanishing()
                for name in covariant_cases[case]:
                    assert vanishing[name], (mask, case, name)
                checked += 1
    budget.done(f"{checked} covariant ladders")


def test_criterion_11_g_abcd_quartic():
    budget = Budget("criterion 11 (generic-family quartic factors)", 1)
    q1, _q2, _q3 = quartics(g_abcd_state(1, 2, 3, 4))
    for root in (1, 4, 9, 16):
        assert q1.evaluate(RingScalar(root), ONE) == 0
    budget.done()


def test_criterion_12_five_qubit_sweep():
    # Every five-qubit edge set gets its exact answer.  Outside the three
    # generically nonsingular classes (the 5-cycle and the complements of a
    # 5-path and of {{0,1},{0,2},{1,3}}) each edge set carries a verified
    # witness, hence a vanishing hyperdeterminant, under every parameter set.
    # Inside them the ground-form system has no nontrivial solution, so every
    # lookup raises WitnessNotFound; the 32-chart Groebner certificates in
    # tests/test_five_qubit.py prove those classes nonsingular.
    from czswap.five_qubit import (
        GENERICALLY_NONSINGULAR,
        WitnessNotFound,
        all_edge_classes,
        class_of,
    )

    budget = Budget("criterion 12 (1024-graph hyperdeterminant witnesses)", 300)
    rng = random.Random(1212)
    pairs5 = list(combinations(range(5), 2))
    param_sets = [random_params(5, rng) for _ in range(3)]
    fallbacks = 0
    verified = set()
    unwitnessed = {}
    partial = []  # edge sets witnessed under some parameter sets only
    for mask in range(1024):
        e = PairSet.of(5, [p for i, p in enumerate(pairs5) if (mask >> i) & 1])
        index = class_of(e).index
        witnessed = 0
        for params in param_sets:
            try:
                witness = tabulated_solution_5q(e, params)
            except WitnessNotFound as exc:
                assert exc.class_index == index
                continue
            witnessed += 1
            fallbacks += witness.from_fallback
        if witnessed == len(param_sets):
            verified.add(mask)
        elif witnessed == 0:
            unwitnessed.setdefault(index, set()).add(mask)
        else:
            partial.append(mask)
    print(
        f"criterion 12: {len(verified)}/1024 edge sets verified "
        f"({fallbacks} witnesses via fallback after recorded table discrepancies); "
        f"unwitnessed classes {sorted(unwitnessed)} cover "
        f"{sum(len(v) for v in unwitnessed.values())} edge sets"
    )
    budget.done("timing only; correctness asserted below")
    assert not partial, f"edge sets witnessed under some parameter sets only: {partial}"
    assert set(unwitnessed) == GENERICALLY_NONSINGULAR == {15, 27, 34}
    cardinal = {row.index: row.cardinal for row in all_edge_classes()}
    counts = {index: len(masks) for index, masks in unwitnessed.items()}
    assert counts == {index: cardinal[index] for index in GENERICALLY_NONSINGULAR}
    assert sum(counts.values()) == 132
    assert len(verified) == 892


def test_criterion_13_ghz_genericity():
    budget = Budget("criterion 13 (GHZ genericity thresholds)", 1)
    assert ghz_generic(2) is True
    assert ghz_generic(3) is True
    for k in range(4, 9):
        assert ghz_generic(k) is False
    budget.done("generic for k=2,3 only")


def test_criterion_14_transvectant_micro_oracle():
    budget = Budget("criterion 14 (transvectant against differentiation oracle)", 10)
    # single-pair first transvectant of linear forms
    f = MultiPoly.variable(1, 0, 0, 3) + MultiPoly.variable(1, 0, 1, 5)
    g = MultiPoly.variable(1, 0, 0, 7) + MultiPoly.variable(1, 0, 1, 11)
    assert transvect(f, g, (1,)) == MultiPoly.const(1, 3 * 11 - 5 * 7)

    def oracle(fa, ga):
        out = MultiPoly.zero(4)
        for a in (0, 1):
            for b in (0, 1):
                sign = -1 if (a + b) % 2 else 1
                left = fa.differentiate(VarId(2, a)).differentiate(VarId(3, b))
                right = ga.differentiate(VarId(2, 1 - a)).differentiate(VarId(3, 1 - b))
                out = out + sign * (left * right)
        return out

    from czswap.four_qubit import ladder_ground_form

    rng = random.Random(1414)
    for _ in range(10):
        amps = [RingScalar(Fraction(rng.randint(-5, 5), rng.randint(1, 5))) for _ in range(16)]
        if not any(amps):
            amps[3] = ONE
        state = PureState.exact(4, amps)
        a_form = ladder_ground_form(state)
        lhs = transvect(a_form, a_form, (0, 0, 1, 1))
        assert lhs == oracle(a_form, a_form)
    budget.done("10 random states")
