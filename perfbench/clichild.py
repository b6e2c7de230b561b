"""Run one czswap command under the tracer (the cli workload's traced mode).

Usage: python3 perfbench/clichild.py <counters.json> <czswap arguments...>

Imports czswap (timing the import), wraps its layers, runs ``cli.main`` and
writes the per-layer totals to <counters.json>; exits with main's code.
"""

import json
import sys
from time import perf_counter

t0 = perf_counter()
import czswap.cli  # noqa: E402

import_s = perf_counter() - t0

from tracing import Tracer  # noqa: E402


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    tracer.active = True
    try:
        code = czswap.cli.main(argv)
    finally:
        tracer.active = False
        totals = tracer.aggregate()
        totals["cli.import_s"] = import_s
        with open(out_path, "w") as fh:
            json.dump(totals, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
