"""czswap benchmark: one closed-loop workload per run.

    python3 perfbench/run.py --workload {sweep5,sweep4,circuits,cli} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root; czswap is imported from ./src.  The run
attempts whole rounds of operations until S seconds of operation time have
passed, checks every output with the independent checkers in checks.py, and
prints one JSON object as its last line:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics are
the end-to-end ones; with --trace 1 the per-layer ones, from wrappers around
czswap's layers (tracing.py).  The line before it carries the machine facts,
and the whole result is also written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter, process_time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 7

sys.path.insert(0, HERE)


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _use_checkout_source() -> None:
    """Import czswap from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "czswap", "__init__.py")):
        _fail(f"no czswap package under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)


def machine_facts() -> dict:
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "czswap")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "czswap_commit": _git_head(),
        "czswap_source_sha256": digest.hexdigest(),
    }


def _git_head():
    """The checked-out commit, read from .git without running git; None when
    the checkout is not a git work tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _setup_child(workload: str, seed: int) -> None:
    """Time one set-up (import, inputs, caches) in this fresh process."""
    from workloads import WORKLOADS

    wl = WORKLOADS[workload](ROOT, seed)
    wl.close()
    print(repr(wl.setup_s))


def measure_setup(workload: str, seed: int) -> float:
    """One set-up, timed in a fresh process."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-child",
         "--workload", workload, "--seed", str(seed), "--seconds", "0"],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        _fail(f"set-up failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def per_kind(kinds, times) -> dict:
    """Count and median time (ms) of each kind of operation."""
    by_kind: dict[str, list[float]] = {}
    for kind, t in zip(kinds, times):
        by_kind.setdefault(kind, []).append(t)
    return {k: {"count": len(v), "median_ms": 1000 * statistics.median(v)}
            for k, v in sorted(by_kind.items())}


def quantile(values, p):
    """Harrell-Davis estimate of the p-quantile: the mean of the order
    statistics weighted by the Beta(p(n+1), (1-p)(n+1)) mass on ((i-1)/n, i/n].
    A single order statistic jumps when the quantile falls between two
    clusters of operation times (sweep4's median sits between the cheap
    graphs and the covariant ladders); this weighted mean moves smoothly."""
    x = sorted(values)
    n = len(x)
    if n == 1:
        return x[0]
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 16  # midpoint rule inside each interval
    h = 1.0 / (n * steps)
    weights = []
    for i in range(n):
        w = 0.0
        for j in range(steps):
            t = (i * steps + j + 0.5) * h
            w += math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))
        weights.append(w)
    return sum(w * v for w, v in zip(weights, x)) / sum(weights)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["sweep5", "sweep4", "circuits", "cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _use_checkout_source()
    if args.setup_child:
        _setup_child(args.workload, args.seed)
        return 0

    from workloads import WORKLOADS

    facts = machine_facts()
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        import czswap  # noqa: F401  (the tracer wraps the loaded modules)

        tracer.install()

    wl = WORKLOADS[args.workload](ROOT, args.seed, trace=tracer is not None)
    wl.prepare_checks()
    # Set-ups are timed in fresh processes spread through the run, one each
    # time the operations pass another 1/SETUP_REPEATS of --seconds, so that
    # setup_s samples the same stretch of the host's time as the operations.
    setup_times: list[float] = []

    times: list[float] = []
    kinds: list[str] = []
    attempted = failed = 0
    correct = True
    child_totals: dict[str, float] = {}
    child_rss_kb = 0
    line_gates = 0
    measured = wall = 0.0
    round_no = 0
    try:
        while measured < args.seconds:
            # one round's inputs at a time, so that peak memory does not grow
            # with the number of rounds a run gets through
            ops = wl.first_round if round_no == 0 else wl.round(round_no)
            wl.first_round = None
            for op in ops:
                if (tracer is None and len(setup_times) < SETUP_REPEATS
                        and measured >= args.seconds * len(setup_times) / SETUP_REPEATS):
                    setup_times.append(measure_setup(args.workload, args.seed))
                attempted += 1
                if tracer is not None:
                    tracer.active = True
                c0, t0 = process_time(), perf_counter()
                try:
                    out = op.run()
                except Exception:
                    if tracer is not None:
                        tracer.active = False
                    measured += process_time() - c0
                    failed += 1
                    print(f"operation {op.kind} raised:\n{traceback.format_exc()}", file=sys.stderr)
                    continue
                elapsed = process_time() - c0
                wall += perf_counter() - t0
                if tracer is not None:
                    tracer.active = False
                if isinstance(out, dict) and "child_cpu_s" in out:
                    elapsed += out["child_cpu_s"]
                    child_rss_kb = max(child_rss_kb, out["maxrss_kb"])
                measured += elapsed
                times.append(elapsed)
                kinds.append(op.kind)
                if op.trace_file:
                    with open(op.trace_file) as fh:
                        for key, value in json.load(fh).items():
                            child_totals[key] = child_totals.get(key, 0.0) + value
                problem = op.check(out)
                if problem:
                    failed += 1
                    correct = False
                    print(f"operation {op.kind} failed its check: {problem}", file=sys.stderr)
                if round_no == 0 and op.kind == "line":
                    line_gates += len(out[1].gates)  # the heuristic's output
            del ops
            round_no += 1
    finally:
        wl.close()

    completed = len(times)
    if tracer is None:
        while len(setup_times) < SETUP_REPEATS:
            setup_times.append(measure_setup(args.workload, args.seed))
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            # operations that raised count in the time but not as completed
            "ops_per_s": (completed / measured if measured else 0.0, "1/s"),
            "op_p50_ms": (1000 * quantile(times, 0.5) if times else 0.0, "ms"),
            "op_tail_ms": (1000 * quantile(times, wl.tail_pct / 100) if times else 0.0, "ms"),
            "peak_rss_mb": (
                (child_rss_kb if args.workload == "cli"
                 else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss) / 1024, "MiB"),
        }
    else:
        totals = tracer.aggregate()
        for key, value in child_totals.items():
            totals[key] = totals.get(key, 0.0) + value
        metrics = layer_metrics(totals, max(attempted, 1))
        metrics["trace.op_mean_ms"] = (1000 * sum(times) / max(completed, 1), "ms")
        metrics["line_gates_out"] = (line_gates, "gates")
        os.makedirs(OUT, exist_ok=True)
        tracer.write_spans(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.bin"))

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": round_no,
        "completed": completed,
        "op_cpu_s": measured,
        "op_wall_s": wall,
        "tail_percentile": wl.tail_pct,
        "per_kind_ms": per_kind(kinds, times),
        "machine": facts,
        "result": result,
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(detail, fh, indent=1)
    print(json.dumps({k: v for k, v in detail.items() if k != "result"}))
    print(json.dumps(result))
    return 0


# Per-layer metrics: (name, unit).  Each is a tracer total divided by the
# operations attempted, so runs of different lengths compare.
LAYER_TOTALS = [
    ("ring.mul.calls", "count/op"), ("ring.mul.rational_calls", "count/op"),
    ("ring.mul.gaussian_calls", "count/op"), ("ring.mul.sqrt2_calls", "count/op"),
    ("ring.mul.time_s", "s/op"), ("ring.addsub.calls", "count/op"),
    ("ring.addsub.time_s", "s/op"), ("ring.div.calls", "count/op"),
    ("ring.div.time_s", "s/op"), ("ring.new.calls", "count/op"),
    ("poly.evaluate.calls", "count/op"), ("poly.evaluate.self_s", "s/op"),
    ("poly.evaluate.term_visits", "count/op"), ("poly.differentiate.calls", "count/op"),
    ("poly.differentiate.self_s", "s/op"), ("poly.mul.calls", "count/op"),
    ("poly.mul.self_s", "s/op"), ("poly.mul.coeff_products", "count/op"),
    ("poly.transvect.calls", "count/op"), ("poly.transvect.self_s", "s/op"),
    ("states.phi_state.calls", "count/op"), ("states.phi_state.self_s", "s/op"),
    ("hyperdet.ground_form.calls", "count/op"), ("hyperdet.ground_form.self_s", "s/op"),
    ("hyperdet.system_check.calls", "count/op"), ("hyperdet.system_check.self_s", "s/op"),
    ("five_qubit.class_of.calls", "count/op"), ("five_qubit.class_of.self_s", "s/op"),
    ("five_qubit.lookup.self_s", "s/op"), ("five_qubit.lookup.printed", "count/op"),
    ("five_qubit.lookup.fallback", "count/op"), ("five_qubit.lookup.not_found", "count/op"),
    ("four_qubit.invariants4.self_s", "s/op"), ("four_qubit.quartics.self_s", "s/op"),
    ("four_qubit.covariants4.calls", "count/op"), ("four_qubit.covariants4.self_s", "s/op"),
    ("four_qubit.classify_phi4.self_s", "s/op"),
    ("group.nf_mul.calls", "count/op"), ("group.nf_mul.self_s", "s/op"),
    ("words.evaluate.self_s", "s/op"),
    ("optimize.normalize.self_s", "s/op"), ("optimize.synthesize_complete.self_s", "s/op"),
    ("optimize.dehn_reduce.self_s", "s/op"),
    ("optimize.heuristic_line_reduce.calls", "count/op"),
    ("optimize.heuristic_line_reduce.self_s", "s/op"),
    ("optimize.heuristic_line_reduce.letters_removed", "count/op"),
    ("optimize.bfs_minimize.self_s", "s/op"),
    ("simulate.signed_perm_of.self_s", "s/op"), ("simulate.equivalent.calls", "count/op"),
    ("simulate.equivalent.self_s", "s/op"), ("simulate.circuit_unitary.self_s", "s/op"),
    ("simulate.enumerate_group.calls", "count/op"),
    ("simulate.enumerate_group.cold_s", "s/op"),
    ("cli.import_s", "s/op"), ("cli.main.self_s", "s/op"),
]


def layer_metrics(totals: dict, ops: int) -> dict:
    metrics = {name: (totals.get(name, 0.0) / ops, unit) for name, unit in LAYER_TOTALS}
    calls = totals.get("hyperdet.system_check.calls", 0.0)
    accepted = totals.get("hyperdet.system_check.accepted", 0.0)
    metrics["hyperdet.system_check.accept_ratio"] = (accepted / calls if calls else 0.0, "ratio")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
