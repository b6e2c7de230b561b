"""The benchmark's four workloads.

Each workload is a closed loop in one process: one operation at a time, the
next only after the last returns.  Operations come in rounds of a fixed make-up
drawn from the seed, and a run attempts whole rounds, so every run sees the
same mix of operation kinds whatever the seed and however long it runs.

Constructing a workload first builds the benchmark's own sampling tables
(untimed), then runs ``setup``, which is timed as ``setup_s``: it imports
czswap, builds the first round's inputs and, for ``circuits``, fills the
group-enumeration cache.  ``prepare_checks`` builds the checkers' own tables;
it is benchmark work and is not timed either.
"""

from __future__ import annotations

import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from time import process_time
from typing import Callable, NamedTuple

import checks as ck


class Op(NamedTuple):
    kind: str
    run: Callable[[], object]  # the timed call into czswap
    check: Callable[[object], str | None]  # None when the output is right
    trace_file: str | None = None  # per-layer counters of a traced child process


def _rng(seed: int, round_no: int, salt: str) -> random.Random:
    return random.Random(f"{salt}:{seed}:{round_no}")


def _draw_params(rng: random.Random, k: int):
    """Positive rationals with numerators and denominators in [1, 97], the
    distribution of the acceptance sweeps."""
    return [
        (Fraction(rng.randint(1, 97), rng.randint(1, 97)),
         Fraction(rng.randint(1, 97), rng.randint(1, 97)))
        for _ in range(k)
    ]


def _qs_params(params):
    return [(ck.qs(a), ck.qs(b)) for a, b in params]


def _to_qs(value):
    """A program scalar as a checker value, through its printed form."""
    return ck.parse_qs(str(value))


def _rational(value) -> Fraction:
    a, b, c, d = _to_qs(value)
    if b or c or d:
        raise ValueError(f"{value} is not rational")
    return a


class Workload:
    name: str
    tail_pct: int  # the percentile reported as op_tail_ms

    def __init__(self, root: str, seed: int, trace: bool = False):
        self.root = root
        self.seed = seed
        self.trace = trace
        self.prepare()
        t0 = process_time()
        self.setup()
        self.first_round = self.round(0)
        self.setup_s = process_time() - t0

    def prepare(self):
        pass

    def setup(self):
        import czswap

        self.cz = czswap

    def prepare_checks(self):
        pass

    def round(self, round_no: int) -> list[Op]:
        raise NotImplementedError

    def close(self):
        pass


# ---------------------------------------------------------------------------
# sweep5: five-qubit witness lookups
# ---------------------------------------------------------------------------


class Sweep5(Workload):
    """One operation is ``tabulated_solution_5q(E, params)``.  A round is all
    1024 edge sets in a seeded order, each under a fresh rational draw, so
    each isomorphism class weighs as many labelled graphs as it has, as in
    the full five-qubit sweep."""

    name = "sweep5"
    tail_pct = 99

    def prepare_checks(self):
        self.nonsingular = set().union(*ck.nonsingular_masks(ck.Relabeler(5)).values())

    def round(self, round_no):
        rng = _rng(self.seed, round_no, self.name)
        masks = list(range(1024))
        rng.shuffle(masks)
        return [self._op(mask, _draw_params(rng, 5)) for mask in masks]

    def _op(self, mask, params):
        cz = self.cz
        e = cz.PairSet.of(5, ck.edges_of(mask, 5))
        spec = cz.ParamSpec(tuple(params))

        def run():
            try:
                return cz.tabulated_solution_5q(e, spec)
            except cz.WitnessNotFound as exc:
                return exc

        def check(out):
            return witness5_problem(mask, params, out, self.nonsingular, cz.WitnessNotFound)

        return Op("lookup", run, check)


def witness5_problem(mask, params, out, nonsingular, not_found_type):
    if isinstance(out, not_found_type):
        if mask not in nonsingular:
            return f"edge set {ck.edges_of(mask, 5)} has no witness but is not nonsingular"
        return None
    if mask in nonsingular:
        return f"edge set {ck.edges_of(mask, 5)} is nonsingular but got a witness"
    solution = [(_to_qs(v0), _to_qs(v1)) for v0, v1 in out.solution.pairs]
    problem = ck.witness_problem(ck.amplitudes(mask, _qs_params(params)), solution)
    return f"witness for {ck.edges_of(mask, 5)}: {problem}" if problem else None


# ---------------------------------------------------------------------------
# sweep4: four-qubit classification
# ---------------------------------------------------------------------------


class Sweep4(Workload):
    """One operation is ``classify_phi4(E, params)``.  A round is all 64
    edge sets in a seeded order, each under a fresh rational draw."""

    name = "sweep4"
    tail_pct = 94

    def prepare_checks(self):
        self.cases = ck.CaseTable()

    def round(self, round_no):
        rng = _rng(self.seed, round_no, self.name)
        masks = list(range(64))
        rng.shuffle(masks)
        return [self._op(mask, _draw_params(rng, 4)) for mask in masks]

    def _op(self, mask, params):
        cz = self.cz
        e = cz.PairSet.of(4, ck.edges_of(mask, 4))
        spec = cz.ParamSpec(tuple(params))

        def run():
            return cz.classify_phi4(e, spec)

        def check(out):
            return phi4_result_problem(mask, params, out, self.cases)

        return Op("classify", run, check)


def phi4_result_problem(mask, params, out, cases):
    inv = out.invariants
    result = {
        "case": out.case,
        "B": _rational(inv.B),
        "L": _rational(inv.L),
        "M": _rational(inv.M),
        "Dxy": _rational(inv.Dxy),
        "confirmations_ok": out.confirmations_ok,
        "vanishing": {k for k, v in (out.covariant_vanishing or {}).items() if v},
    }
    problem = ck.phi4_problem(mask, _qs_params(params), result, cases)
    return f"classification of {ck.edges_of(mask, 4)}: {problem}" if problem else None


# ---------------------------------------------------------------------------
# circuits: normal forms, line optimisation and equivalence
# ---------------------------------------------------------------------------

LINE_BUDGET = 500
ENUM_SIZES = (2, 3, 4, 5)


def random_gates(rng, k, n):
    """n random c-Z or SWAP gates on any pairs of k qubits."""
    return [(rng.choice(("cz", "swap")), tuple(sorted(rng.sample(range(k), 2))))
            for _ in range(n)]


def staircase(rng, k, n):
    """A line circuit whose gates step along the line (pair t mod k-1), most
    of them SWAPs.  Few gates cancel, so Dehn reduction leaves long words and
    the line heuristic searches until its budget runs out, at a cost that
    varies little from draw to draw; random line circuits, with their many
    cancellations, make it do anything from nothing to its whole budget."""
    return [("swap" if rng.random() < 0.6 else "cz", (t % (k - 1), t % (k - 1) + 1))
            for t in range(n)]


def hx_circuit(rng, k):
    """Eight gates in a random order: two H, one X and five c-Z or SWAP, so
    every equivalence check multiplies dense matrices of the same make-up."""
    gates = [("h", (rng.randrange(k),)) for _ in range(2)] + [("x", (rng.randrange(k),))]
    gates += random_gates(rng, k, 5)
    rng.shuffle(gates)
    return gates


class Circuits(Workload):
    """A round is 16 complete-graph resyntheses and 16 line optimisations
    (four per qubit count 2..5) and four equivalence checks of H/X-bearing
    pairs on 3 and 4 qubits, one equivalent and one not per size."""

    name = "circuits"
    tail_pct = 98

    def setup(self):
        super().setup()
        for k in ENUM_SIZES:
            for topology in (self.cz.Topology.COMPLETE, self.cz.Topology.LINE):
                self.cz.enumerate_group(k, topology)

    def round(self, round_no):
        rng = _rng(self.seed, round_no, self.name)
        ops = []
        for k in ENUM_SIZES:
            for _ in range(4):
                ops.append(self._complete_op(k, random_gates(rng, k, 4 * k)))
                ops.append(self._line_op(k, staircase(rng, k, 16)))
        for k in (3, 4):
            base = hx_circuit(rng, k)
            q = rng.randrange(k)
            pos = rng.randrange(len(base) + 1)
            name = rng.choice(("h", "x"))
            ops.append(self._equiv_op(k, base, base[:pos] + [(name, (q,))] * 2 + base[pos:], True))
            extra = random_gates(rng, k, 1)
            pos = rng.randrange(len(base) + 1)
            ops.append(self._equiv_op(k, base, base[:pos] + extra + base[pos:], False))
        rng.shuffle(ops)
        return ops

    def _circuit(self, k, gates):
        cz = self.cz
        return cz.Circuit(k, tuple(cz.Gate(n, q) for n, q in gates))

    @staticmethod
    def _gates(circuit):
        return [(g.name, tuple(g.qubits)) for g in circuit.gates]

    def _complete_op(self, k, gates):
        cz = self.cz
        c = self._circuit(k, gates)

        def run():
            return cz.synthesize_complete(cz.normalize(c))

        def check(out):
            got = self._gates(out)
            if not ck.same_action(k, gates, got):
                return f"complete resynthesis of {gates} acts differently"
            if len(got) > len(gates):
                return f"complete resynthesis grew {len(gates)} -> {len(got)} gates"
            return None

        return Op("complete", run, check)

    def _line_op(self, k, gates):
        cz = self.cz
        c = self._circuit(k, gates)

        def run():
            word = cz.circuit_to_word(c)
            dehn = cz.dehn_reduce(word)
            heur = cz.heuristic_line_reduce(dehn, budget=LINE_BUDGET)
            best = cz.bfs_minimize(cz.normalize(c), cz.Topology.LINE)
            return [cz.word_to_circuit(w) for w in (dehn, heur, best)]

        def check(out):
            outs = [self._gates(o) for o in out]
            for label, got in zip(("dehn", "heuristic", "bfs"), outs):
                if not ck.same_action(k, gates, got):
                    return f"{label} output for {gates} acts differently"
                if not ck.on_line(got):
                    return f"{label} output leaves the line"
            d, h, b = (len(o) for o in outs)
            if not b <= h <= d <= len(gates):
                return f"lengths bfs {b} <= heuristic {h} <= dehn {d} <= input {len(gates)} fail"
            return None

        return Op("line", run, check)

    def _equiv_op(self, k, first, second, expected):
        cz = self.cz
        c1, c2 = self._circuit(k, first), self._circuit(k, second)

        def run():
            return cz.equivalent(c1, c2)

        def check(out):
            if out is not expected:
                return f"equivalent() said {out} for a pair built to be {expected}"
            return None

        return Op("equivalent", run, check)


# ---------------------------------------------------------------------------
# cli: one czswap command per fresh process
# ---------------------------------------------------------------------------

CLI_LINE_BUDGET = 300

# The optimize commands run on fixed circuits: with --exact the line
# command's time is mostly the heuristic at its default budget, which varies
# several-fold with the input word, and two samples a run cannot average that.
_FIXED = random.Random("cli-optimize")
CLI_COMPLETE_CIRCUIT = random_gates(_FIXED, 5, 12)
CLI_LINE_CIRCUIT = staircase(_FIXED, 5, 16)


class Cli(Workload):
    """A round is twelve commands, in a seeded order: classify on 3, 4 and 5
    qubits (3 and 4 with and without --symbolic; the 4-qubit edge sets from
    cases 6-11), optimize on the complete graph with --exact and on the line
    with --budget and with --exact, enumerate on five qubits for both
    topologies, and verify on an equivalent and an inequivalent pair."""

    name = "cli"
    tail_pct = 70

    def prepare(self):
        self.workdir = os.path.join(self.root, "perfbench", "out", f"cli-{os.getpid()}")
        os.makedirs(self.workdir, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
        self._files = 0
        # four-qubit edge sets whose classification runs the covariant ladder
        # (cases 6-11): the others take a third of the time, and drawing from
        # both would make the round's cost depend on the seed
        cases = ck.CaseTable()
        self.ladder_masks = [m for m in range(64) if cases.case(m) >= 6]

    def prepare_checks(self):
        self.relabeler = ck.Relabeler(5)
        self.nonsingular = set().union(*ck.nonsingular_masks(self.relabeler).values())
        self.cases = ck.CaseTable()

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def _write(self, text):
        self._files += 1
        path = os.path.join(self.workdir, f"c{self._files % 64}.czs")
        with open(path, "w") as fh:
            fh.write(text)
        return path

    def round(self, round_no):
        rng = _rng(self.seed, round_no, self.name)
        ops = []
        for k in (3, 4, 5):
            for symbolic in ((False, True) if k < 5 else (False,)):
                masks = self.ladder_masks if k == 4 else range(1 << len(ck.pairs(k)))
                mask = rng.choice(masks)
                ops.append(self._classify_op(k, mask, rng.randrange(1 << 16), symbolic))
        ops.append(self._optimize_op("complete", CLI_COMPLETE_CIRCUIT, ["--exact"]))
        ops.append(self._optimize_op("line", CLI_LINE_CIRCUIT, ["--budget", str(CLI_LINE_BUDGET)]))
        ops.append(self._optimize_op("line", CLI_LINE_CIRCUIT, ["--exact"]))
        for topology in ("complete", "line"):
            ops.append(self._op(f"enumerate {topology}",
                                ["enumerate", "--qubits", "5", "--topology", topology],
                                self._enumerate_check))
        base = hx_circuit(rng, 4)
        pos = rng.randrange(len(base) + 1)
        q = rng.randrange(4)
        same = base[:pos] + [("h", (q,)), ("h", (q,))] + base[pos:]
        other = base[:pos] + random_gates(rng, 4, 1) + base[pos:]
        for second, expected in ((same, True), (other, False)):
            files = [self._write(ck.circuit_text(4, base)), self._write(ck.circuit_text(4, second))]
            ops.append(self._op("verify", ["verify", *files], self._verify_check(expected)))
        rng.shuffle(ops)
        return ops

    def _op(self, label, argv, check):
        index = self._files = self._files + 1
        out_path = os.path.join(self.workdir, f"out{index % 64}")
        trace_path = os.path.join(self.workdir, f"trace{index % 64}.json") if self.trace else None
        if self.trace:
            cmd = [sys.executable, os.path.join(self.root, "perfbench", "clichild.py"),
                   trace_path, *argv]
        else:
            cmd = [sys.executable, "-m", "czswap", *argv]

        def run():
            with open(out_path + ".stdout", "w") as so, open(out_path + ".stderr", "w") as se:
                proc = subprocess.Popen(cmd, stdout=so, stderr=se, cwd=self.root, env=self.env)
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            with open(out_path + ".stdout") as so, open(out_path + ".stderr") as se:
                return {"code": proc.returncode, "stdout": so.read(), "stderr": se.read(),
                        "maxrss_kb": usage.ru_maxrss,
                        "child_cpu_s": usage.ru_utime + usage.ru_stime}

        def checked(out):
            problem = check(out)
            if problem:
                return f"czswap {' '.join(argv)}: {problem} (exit {out['code']}, stderr {out['stderr'][-300:]!r})"
            return None

        return Op(label, run, checked, trace_path)

    # -- commands and their checks ---------------------------------------------

    def _classify_op(self, k, mask, param_seed, symbolic):
        edges = ck.edges_of(mask, k)
        pairs_arg = ",".join(f"{i}{j}" for i, j in edges) or "none"
        argv = ["classify", "--qubits", str(k), "--pairs", pairs_arg, "--seed", str(param_seed)]
        if symbolic:
            argv.append("--symbolic")

        def check(out):
            fields = ck.report_fields(out["stdout"])
            if k == 5 and out["code"] == 2 and out["stdout"].startswith("no-witness:"):
                if mask not in self.nonsingular:
                    return "no witness for an edge set outside the nonsingular classes"
                return None
            if out["code"] != 0:
                return "nonzero exit"
            params = ck.parse_pair_list(fields["params"])
            if k == 3:
                if fields["class"] == "w-class":
                    return "a phase-graph state classed W"
                amps = [x[0] for x in ck.amplitudes(mask, params)]
                generic = ck.cayley_hyperdet(amps) != 0
                if generic != (fields["class"] == "ghz-class"):
                    return f"class {fields['class']} disagrees with Cayley's hyperdeterminant"
                if symbolic and fields.get("symbolic-no-w-certificate") != "ok":
                    return "symbolic certificate not ok"
                return None
            if k == 4:
                vanishing = fields.get("vanishing-covariants", "none")
                result = {
                    "case": int(fields["case"]),
                    "B": ck.parse_qs(fields["B"])[0],
                    "L": ck.parse_qs(fields["L"])[0],
                    "M": ck.parse_qs(fields["M"])[0],
                    "Dxy": ck.parse_qs(fields["Dxy"])[0],
                    "confirmations_ok": fields["confirmations"] == "ok",
                    "vanishing": set() if vanishing == "none" else set(vanishing.split(",")),
                }
                problem = ck.phi4_problem(mask, params, result, self.cases)
                if problem:
                    return problem
                if symbolic and fields.get("symbolic-LMN-vanishes") != "ok":
                    return "symbolic LMN check not ok"
                return None
            if mask in self.nonsingular:
                return "a witness for a nonsingular edge set"
            solution = ck.parse_pair_list(fields["solution"])
            return ck.witness_problem(ck.amplitudes(mask, params), solution)

        return self._op(f"classify {k}q" + (" symbolic" if symbolic else ""), argv, check)

    def _optimize_op(self, topology, gates, flags):
        path = self._write(ck.circuit_text(5, gates))

        def check(out):
            if out["code"] != 0:
                return "nonzero exit"
            k, got = ck.parse_circuit_text(out["stdout"])
            if k != 5 or not ck.same_action(5, gates, got):
                return "the output circuit acts differently from the input"
            if len(got) > len(gates):
                return f"the output grew {len(gates)} -> {len(got)} gates"
            if topology == "line" and not ck.on_line(got):
                return "the output leaves the line"
            return None

        return self._op(f"optimize {topology} {flags[0]}",
                        ["optimize", "--topology", topology, *flags, path], check)

    @staticmethod
    def _enumerate_check(out):
        if out["code"] != 0:
            return "nonzero exit"
        if ck.report_fields(out["stdout"]).get("order") != str(120 * 2**10):
            return "order is not 5!*2^10"
        return None

    @staticmethod
    def _verify_check(expected):
        def check(out):
            want = (0, "equivalent") if expected else (2, "inequivalent")
            if (out["code"], out["stdout"].strip()) != want:
                return f"verdict {out['stdout'].strip()!r}, built to be {want[1]}"
            return None
        return check


WORKLOADS = {w.name: w for w in (Sweep5, Sweep4, Circuits, Cli)}
