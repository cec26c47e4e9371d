"""Run one benchmark workload and print its result as the last line.

    python3 perfbench/run.py --workload closed_loop --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` is the
separate traced run that prints the per-layer split instead.  Run from
the root of a checkout; the program under test is imported from its
``src/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("closed_loop", "grid", "service")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    from pbench.common import result_line, scrub_environment

    # Before the program (and NumPy) is imported: some overrides are
    # read at import.  One BLAS thread: on 2 vCPUs OpenBLAS's second
    # thread doubles the grid workload's CPU time for no wall-time gain
    # and ties its timing to the load on the other vCPU.
    scrubbed = scrub_environment(os.environ)
    if scrubbed:
        print(f"ignoring {', '.join(scrubbed)}", file=sys.stderr)
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"

    import importlib

    from pbench import metrics

    workload = importlib.import_module(f"pbench.{args.workload}")
    outcome, values, lines = workload.run(args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    for failure in outcome.failures + outcome.self_check:
        print(f"FAILED {failure}", file=sys.stderr)
    shown = metrics.per_layer(values) if args.trace else metrics.end_to_end(values)
    print(result_line(outcome, shown))
    return 0


if __name__ == "__main__":
    sys.exit(main())
