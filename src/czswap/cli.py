"""Command-line interface.

Subcommands: optimize, verify, classify, enumerate, ghz.  Exit codes:
0 success, 1 domain error (bad circuit, wrong qubit count, bad flags),
2 verification failure (inequivalent circuits, failed self-check).
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .circuit import Topology, check_topology, parse_circuit, serialize_circuit
from .group import PairSet
from .optimize import (
    bfs_minimize,
    circuit_to_word,
    dehn_reduce,
    heuristic_line_reduce,
    normalize,
    synthesize_complete,
    word_to_circuit,
)
from .ring import RingScalar
from .simulate import ENUMERATION_MAX_K, enumerate_group, equivalent, signed_perm_of
from .states import ParamSpec, ghz_circuit, phi_state, random_params
from . import report
from .three_qubit import classify3, delta3, no_w_certificate
from .four_qubit import classify_phi4, invariants4_symbolic
from .five_qubit import tabulated_solution_5q


class CliError(Exception):
    def __init__(self, message: str, code: int = 1):
        super().__init__(message)
        self.code = code


def _read_circuit(path: str):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    return parse_circuit(text)


def _cmd_optimize(args) -> int:
    circuit = _read_circuit(args.circuit)
    topology = Topology(args.topology)
    if not circuit.is_phase_swap_only():
        raise CliError("optimize handles c-Z/SWAP circuits only (H/X present)")
    violations = check_topology(circuit, topology)
    if violations:
        raise CliError("input violates the topology:\n" + "\n".join(violations))
    nf = normalize(circuit)
    if topology is Topology.COMPLETE:
        out = synthesize_complete(nf)
        if args.exact and circuit.k <= ENUMERATION_MAX_K:
            dist = enumerate_group(circuit.k, Topology.COMPLETE).distance(nf)
            if len(out.gates) != dist:
                raise CliError(
                    f"synthesized {len(out.gates)} gates but the Cayley distance is {dist}",
                    code=2,
                )
            print(f"# exact: gate count {len(out.gates)} is minimal", file=sys.stderr)
    elif args.exact:
        if circuit.k > ENUMERATION_MAX_K:
            raise CliError(
                f"--exact needs k <= {ENUMERATION_MAX_K} (Cayley graph size)"
            )
        out = word_to_circuit(bfs_minimize(nf, Topology.LINE))
    else:
        word = dehn_reduce(circuit_to_word(circuit))
        out = word_to_circuit(heuristic_line_reduce(word, budget=args.budget))
    if signed_perm_of(normalize(out)) != signed_perm_of(nf):
        raise CliError("self-check failed: output is not equivalent to input", code=2)
    print(f"# verified: output equivalent to input ({len(circuit)} -> {len(out)} gates)",
          file=sys.stderr)
    sys.stdout.write(serialize_circuit(out))
    return 0


def _cmd_verify(args) -> int:
    c1 = _read_circuit(args.first)
    c2 = _read_circuit(args.second)
    if c1.k != c2.k:
        raise CliError(f"qubit counts differ: {c1.k} vs {c2.k}")
    if equivalent(c1, c2):
        print("equivalent")
        return 0
    print("inequivalent")
    return 2


def _parse_pairs(text: str, k: int) -> PairSet:
    pairs = []
    text = text.strip()
    if text and text != "none":
        for token in text.split(","):
            token = token.strip()
            if len(token) != 2 or not token.isdigit():
                raise CliError(f"bad pair token {token!r}: want two digits like '01'")
            i, j = int(token[0]), int(token[1])
            if i == j or i >= k or j >= k:
                raise CliError(f"bad pair {token!r} for {k} qubits")
            pairs.append((i, j))
    return PairSet.of(k, pairs)


def _load_params(args, k: int) -> ParamSpec:
    if args.params == "random":
        return random_params(k, args.seed)
    try:
        with open(args.params) as fh:
            rows = [line.split() for line in fh if line.strip()]
        pairs = tuple((RingScalar(Fraction(r[0])), RingScalar(Fraction(r[1]))) for r in rows)
    except (OSError, ValueError, IndexError, ZeroDivisionError) as exc:
        raise CliError(f"cannot load parameters from {args.params}: {exc}") from exc
    if len(pairs) != k:
        raise CliError(f"parameter file has {len(pairs)} rows, need {k}")
    return ParamSpec(pairs)


def _cmd_classify(args) -> int:
    k = args.qubits
    e = _parse_pairs(args.pairs, k)
    params = _load_params(args, k)
    if k == 3:
        state = phi_state(e, params)
        cls = classify3(state)
        sys.stdout.write(report.classification_report_3q(e, params, delta3(state), cls))
        if args.symbolic:
            ok = no_w_certificate(e)
            print(f"symbolic-no-w-certificate: {'ok' if ok else 'FAILED'}")
            return 0 if ok else 2
    elif k == 4:
        result = classify_phi4(e, params)
        sys.stdout.write(report.classification_report_4q(e, params, result))
        if args.symbolic:
            inv = invariants4_symbolic(e)
            lmn_zero = (inv.L * inv.M * inv.N).is_zero()
            print(f"symbolic-LMN-vanishes: {'ok' if lmn_zero else 'FAILED'}")
            return 0 if lmn_zero else 2
    elif k == 5:
        if args.symbolic:
            raise CliError("--symbolic is available for 3 and 4 qubits only")
        from .five_qubit import WitnessNotFound

        try:
            witness = tabulated_solution_5q(e, params)
        except WitnessNotFound as exc:
            print(f"no-witness: {exc}")
            return 2
        sys.stdout.write(report.classification_report_5q(e, params, witness))
    else:
        raise CliError("classify supports --qubits 3, 4 or 5")
    return 0


def _cmd_enumerate(args) -> int:
    topology = Topology(args.topology)
    try:
        enum = enumerate_group(args.qubits, topology)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    print(f"qubits: {args.qubits}")
    print(f"topology: {topology.value}")
    print(f"order: {enum.order}")
    print(f"diameter: {enum.diameter}")
    return 0


def _cmd_ghz(args) -> int:
    if args.qubits < 2:
        raise CliError("need at least two qubits")
    sys.stdout.write(serialize_circuit(ghz_circuit(args.qubits)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="czswap",
        description="Optimize c-Z/SWAP circuits and classify the entanglement "
        "of phase-graph product states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("optimize", help="simplify a c-Z/SWAP circuit")
    p.add_argument("circuit", help="circuit file")
    p.add_argument("--topology", choices=["complete", "line"], default="complete")
    p.add_argument("--budget", type=int, default=10000,
                   help="search budget for the line-topology heuristic")
    p.add_argument("--exact", action="store_true",
                   help="exact minimization via the Cayley graph (k <= 5)")
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("verify", help="check two circuits for exact equality")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("classify", help="entanglement class of a phase-graph state")
    p.add_argument("--qubits", type=int, required=True, choices=[3, 4, 5])
    p.add_argument("--pairs", required=True,
                   help="comma list of phase pairs, e.g. '01,12' (or 'none')")
    p.add_argument("--params", default="random",
                   help="'random' or a file with one 'a0 a1' row per qubit")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--symbolic", action="store_true",
                   help="add the symbolic (indeterminate-parameter) check")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("enumerate", help="group order and Cayley diameter")
    p.add_argument("--qubits", type=int, required=True)
    p.add_argument("--topology", choices=["complete", "line"], default="complete")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("ghz", help="emit the GHZ preparation circuit")
    p.add_argument("--qubits", type=int, required=True)
    p.set_defaults(func=_cmd_ghz)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
