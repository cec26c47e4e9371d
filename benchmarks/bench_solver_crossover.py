"""Direct vs iterative vs AMG steady-solve crossover on the 4-tier stack.

Sweeps the per-level grid resolution from 50x50 to 500x500 and solves
the same 4-tier steady problem with every backend tier, each in its
own subprocess so peak RSS (``ru_maxrss``) reflects exactly one
factorisation.  Each child routes its memory peaks (RSS plus a
``tracemalloc`` Python-allocation gauge) through the
:mod:`repro.obs.metrics` registry and reports the full snapshot, so
the memory curves come from the same telemetry surface as every other
metric rollup.  All backends run under tracemalloc, so its (modest)
allocation overhead cancels out of the crossover comparison.  The
output justifies both limits in :mod:`repro.thermal.krylov`: below the
crossover the SuperLU factorisation wins on wall time
(``DIRECT_NODE_LIMIT``); above it the AMG-preconditioned BiCGSTAB
beats plain ILU+BiCGSTAB at every measured size, so ``"auto"`` goes
straight from direct to AMG and the ILU tier serves as its guarded
fallback.
Direct LU is skipped above ``DIRECT_MAX_SIZE`` — its fill-in at
300x300 per level already exceeds the 2 GB class, and the point of the
raw-speed tier is exactly that nobody should factorise a 500x500
4-tier stack.

Run directly to (re)generate the ``solver_crossover`` section of the
committed ``BENCH_thermal.json``::

    PYTHONPATH=src python benchmarks/bench_solver_crossover.py

``--quick`` sweeps only the two smallest sizes with a short timeout —
the CI smoke that proves the harness end-to-end without the hour-class
full sweep.  The pytest entry point is marked ``large_grid`` and
excluded from the tier-1 suite; opt in with ``-m large_grid``.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.thermal.krylov import DIRECT_NODE_LIMIT

REPO_ROOT = Path(__file__).resolve().parent.parent
REPORT_PATH = REPO_ROOT / "BENCH_thermal.json"

SIZES = (50, 100, 150, 200, 300, 400, 500)
QUICK_SIZES = (50, 100)
METHODS = ("direct", "iterative", "amg")
DIRECT_MAX_SIZE = 300
"""Largest per-level grid the direct LU is asked to factorise.

Beyond it the fill-in leaves the measurable class (hundreds of seconds
and many GB at 300x300 already); larger sizes record the direct point
as ``skipped`` and the crossover logic treats that as beaten.
"""

TIMEOUT_S = 1800.0
"""Per-solve budget; a backend that blows it is recorded as ``timeout``
and counts as beaten at that size."""

QUICK_TIMEOUT_S = 300.0

CHILD = """
import json, resource, sys, time, tracemalloc
from repro.geometry import build_3d_mpsoc
from repro.obs.metrics import get_registry
from repro.thermal import CompactThermalModel

size, method = int(sys.argv[1]), sys.argv[2]
stack = build_3d_mpsoc(4)
registry = get_registry()
tracemalloc.start()
start = time.perf_counter()
model = CompactThermalModel(stack, nx=size, ny=size, solver=method)
powers = {ref: 2.0 for ref in model.block_masks()}
field = model.steady_state(powers)
wall = time.perf_counter() - start
# One warm repeat: the sweep/closed-loop hot paths reuse the cached
# factor/preconditioner at a fixed flow state, so the marginal solve
# cost matters as much as the cold setup+solve above.
start = time.perf_counter()
model.steady_state({ref: 2.5 for ref in model.block_masks()})
warm = time.perf_counter() - start
traced_peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
# Both memory figures flow through the metrics registry so the curves
# come from the same telemetry surface as every other rollup.  The
# tracemalloc gauge covers Python/numpy allocations only: SuperLU's
# internal C mallocs (the LU fill-in that motivates this benchmark)
# are invisible to it, which is why ru_maxrss stays alongside.
registry.gauge("solver.peak_rss_mb").set(
    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
)
registry.gauge("solver.tracemalloc_peak_mb").set(traced_peak / 2**20)
snapshot = registry.snapshot()
print(json.dumps({
    "status": "ok",
    "nodes": int(model.grid.size),
    "wall_s": wall,
    "warm_solve_s": warm,
    "peak_rss_mb": snapshot["solver.peak_rss_mb"]["value"],
    "tracemalloc_peak_mb": snapshot["solver.tracemalloc_peak_mb"]["value"],
    "peak_temperature_k": float(field.max()),
    "stats": model.steady_stats.as_dict(),
    "metrics": snapshot,
}))
"""


def run_case(size, method, timeout=TIMEOUT_S):
    """One (size, method) steady solve in a fresh subprocess."""
    if method == "direct" and size > DIRECT_MAX_SIZE:
        return {
            "status": "skipped",
            "reason": f"direct LU capped at {DIRECT_MAX_SIZE}x"
            f"{DIRECT_MAX_SIZE} per level (fill-in)",
        }
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    try:
        proc = subprocess.run(
            [sys.executable, "-c", CHILD, str(size), method],
            capture_output=True,
            text=True,
            timeout=timeout,
            env=env,
        )
    except subprocess.TimeoutExpired:
        return {"status": "timeout", "timeout_s": timeout}
    if proc.returncode != 0:
        return {
            "status": "error",
            "returncode": proc.returncode,
            "stderr": proc.stderr[-500:],
        }
    return json.loads(proc.stdout.strip().splitlines()[-1])


def beats(challenger, incumbent):
    """Did ``challenger`` beat ``incumbent`` at this size?

    An incumbent timeout, crash (memory exhaustion) or skip counts as
    beaten as long as the challenger's solve finished.
    """
    if challenger.get("status") != "ok":
        return False
    if incumbent.get("status") != "ok":
        return True
    return challenger["wall_s"] < incumbent["wall_s"]


def iterative_wins(direct, iterative):
    """Backward-compatible alias used by the committed reports/tests."""
    return beats(iterative, direct)


def _speedup(numerator, denominator):
    """``numerator`` wall time over ``denominator``'s, when both ran."""
    if (
        numerator.get("status") == "ok"
        and denominator.get("status") == "ok"
        and denominator["wall_s"] > 0.0
    ):
        return round(numerator["wall_s"] / denominator["wall_s"], 2)
    return None


def sweep(sizes=SIZES, timeout=TIMEOUT_S, verbose=False):
    """Solve every (size, method) pair; returns the crossover summary."""
    curves = []
    for size in sizes:
        entry = {"grid": f"{size}x{size}"}
        for method in METHODS:
            record = run_case(size, method, timeout=timeout)
            entry[method] = record
            if record.get("nodes"):
                entry["nodes"] = record["nodes"]
            if verbose:
                wall = record.get("wall_s")
                rss = record.get("peak_rss_mb")
                print(
                    f"  {size}x{size} {method:<9s} "
                    + (
                        f"{wall:8.2f} s  {rss:8.1f} MB"
                        if record["status"] == "ok"
                        else record["status"]
                    ),
                    flush=True,
                )
        entry["amg_speedup_over_iterative"] = _speedup(
            entry["iterative"], entry["amg"]
        )
        curves.append(entry)

    crossover_nodes = None
    amg_crossover_nodes = None
    for entry in curves:
        if crossover_nodes is None and iterative_wins(
            entry["direct"], entry["iterative"]
        ):
            crossover_nodes = entry.get("nodes")
        if amg_crossover_nodes is None and beats(
            entry["amg"], entry["iterative"]
        ):
            amg_crossover_nodes = entry.get("nodes")
    return {
        "description": (
            "4-tier steady solve, direct LU vs ILU+BiCGSTAB vs "
            "AMG+BiCGSTAB; one subprocess per point so peak_rss_mb "
            "isolates one factorisation; wall_s = cold assembly + "
            "setup + solve, warm_solve_s = one cached repeat"
        ),
        "sizes": list(f"{s}x{s}" for s in sizes),
        "crossover_nodes": crossover_nodes,
        "amg_crossover_nodes": amg_crossover_nodes,
        "direct_node_limit": DIRECT_NODE_LIMIT,
        "curves": curves,
    }


def merge_into_report(summary, path=REPORT_PATH):
    """Write the crossover section into ``BENCH_thermal.json``."""
    report = {}
    if path.exists():
        report = json.loads(path.read_text())
    report["solver_crossover"] = summary
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


@pytest.mark.large_grid
def test_crossover_iterative_beats_direct_at_large_grids():
    """Above the auto-selection limit the iterative path must win."""
    summary = sweep(sizes=(50, 150), timeout=TIMEOUT_S)
    small, large = summary["curves"]
    # 50x50 (30k nodes) sits below DIRECT_NODE_LIMIT: direct must work.
    assert small["direct"]["status"] == "ok"
    # 150x150 per level (~270k nodes) is beyond the limit: the
    # iterative backend must finish and beat (or outlive) direct LU.
    assert large["nodes"] > DIRECT_NODE_LIMIT
    assert iterative_wins(large["direct"], large["iterative"])
    # The iterative path must stay in the 2 GB class at this size.
    assert large["iterative"]["peak_rss_mb"] < 2048.0
    # The raw-speed tier must beat plain ILU above the limit.
    assert beats(large["amg"], large["iterative"])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help=f"sweep only {QUICK_SIZES} with a {QUICK_TIMEOUT_S:.0f}s "
        "timeout (CI smoke) instead of the full curve",
    )
    parser.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="write the summary JSON here instead of merging into "
        "BENCH_thermal.json (used by the CI artifact upload)",
    )
    args = parser.parse_args(argv)
    sizes = QUICK_SIZES if args.quick else SIZES
    timeout = QUICK_TIMEOUT_S if args.quick else TIMEOUT_S
    print(f"solver crossover sweep (4-tier, sizes {sizes}):", flush=True)
    summary = sweep(sizes=sizes, timeout=timeout, verbose=True)
    if args.output:
        Path(args.output).write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {args.output}")
    else:
        merge_into_report(summary)
        print(f"recorded in {REPORT_PATH.name}")
    cross = summary["crossover_nodes"]
    amg_cross = summary["amg_crossover_nodes"]
    print(
        f"direct->iterative crossover at {cross} nodes, "
        f"iterative->amg at {amg_cross} nodes "
        f"(DIRECT_NODE_LIMIT={summary['direct_node_limit']})"
    )


if __name__ == "__main__":
    main()
