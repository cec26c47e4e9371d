"""grid: steady design-space queries on a 4-tier 100x100 stack.

120,000 nodes, so the ``auto`` backend picks AMG: AMG-preconditioned
BiCGSTAB dominates, AMG setup and assembly follow, and no other
workload runs this code.  Each repetition assembles a fresh model and
solves the run's seeded power maps at each flow, set with ``set_flow``
(``heat_removed_by_coolant`` reads the stored flow).  Every
(map, flow) query is distinct within a model, so none warm-starts to
zero iterations.  Each query is preceded by a host-speed sample;
timings are each query's median repetition, stated at a nominal host
speed (see :mod:`pbench.hostspeed`).
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from typing import Dict, List

from repro.geometry.stack import CoolingMode, build_3d_mpsoc
from repro.obs.metrics import get_registry
from repro.power.model import PowerModel
from repro.thermal.model import CompactThermalModel

from . import checks, inputs
from .common import (
    Outcome,
    counter_deltas,
    median_by_key,
    percentile,
    same_counts,
    self_peak_rss_mb,
)
from .hostspeed import HostSpeed
from .layers import LayerTimer, grid_layers

SWEEP_SECONDS = 6.5
"""Host seconds of one flows x maps sweep on a 2-vCPU VM; fixes the
number of repetitions from ``--seconds`` (never from a clock)."""

SETUP_ASSEMBLIES = 3
"""Extra assemblies timed per untraced sweep, to steady the median of a
set-up that takes tens of milliseconds."""

WARMUP_CELLS = 30
"""Grid side of the discarded warm-up solve (forced onto the AMG path)."""

COUNTERS = (
    "solver.amg.setups",
    "solver.amg.iterations",
    "solver.amg.solves",
    "solver.fallback.amg_to_iterative",
    "solver.fallback.iterative_to_direct",
)


def repetitions_for(seconds: int) -> int:
    return max(2, round(seconds / SWEEP_SECONDS))


def _sweep(stack, maps, map_ids, reference, outcome: Outcome, host: HostSpeed):
    """One repetition: ``(assembly s, {query: s}, counts, max residual)``."""
    registry = get_registry()
    before = registry.snapshot()
    start = time.perf_counter()
    model = CompactThermalModel(stack, nx=inputs.GRID_CELLS, ny=inputs.GRID_CELLS)
    assembly = time.perf_counter() - start
    queries: Dict[str, float] = {}
    worst = 0.0
    for f_index, flow in enumerate(inputs.GRID_FLOWS):
        for map_id, powers in zip(map_ids, maps):
            what = f"grid map {map_id} at {flow} ml/min"
            host.sample()
            start = time.perf_counter()
            try:
                model.set_flow(flow)
                field = model.steady_state(powers)
            except Exception as exc:  # a query that raises is a failed operation
                outcome.record(what, [f"{type(exc).__name__}: {exc}"])
                continue
            queries[f"{map_id}@{flow}"] = time.perf_counter() - start
            residual = checks.energy_residual(model, field, powers)
            worst = max(worst, residual)
            outcome.record(
                what,
                checks.grid_field_problems(
                    field, reference[str(map_id)][f_index], residual
                ),
            )
    counts = counter_deltas(registry.delta_since(before), COUNTERS)
    return assembly, queries, counts, worst


def run(seed: int, seconds: int, trace: bool) -> tuple:
    """Returns ``(outcome, metrics by name, report lines)``."""
    reference = checks.load_reference()["grid"]["tmax_k"]
    stack = build_3d_mpsoc(inputs.GRID_TIERS, CoolingMode.LIQUID)
    power_model = PowerModel(stack)
    map_ids = inputs.grid_map_ids(seed)
    maps = [inputs.grid_power_map(power_model, map_id) for map_id in map_ids]

    # Absorbs imports, pyc compilation and lazy set-up of the AMG path.
    warm = CompactThermalModel(
        stack, nx=WARMUP_CELLS, ny=WARMUP_CELLS, solver="amg"
    )
    warm.set_flow(inputs.GRID_FLOWS[0])
    warm.steady_state(maps[0])
    del warm

    outcome = Outcome()
    assemblies: List[float] = []
    per_query: Dict[str, List[float]] = defaultdict(list)
    traced_queries: Dict[str, List[float]] = defaultdict(list)
    layer_runs: List[dict] = []
    counts: List[dict] = []
    worst = 0.0
    timer = LayerTimer()
    host = HostSpeed()
    for index in range(repetitions_for(seconds)):
        traced = trace and index % 2 == 1
        if traced:
            with timer.install(grid_layers()):
                timer.reset()
                assembly, queries, sweep_counts, residual = _sweep(
                    stack, maps, map_ids, reference, outcome, host
                )
            for name, elapsed in queries.items():
                traced_queries[name].append(elapsed)
            layer_runs.append(
                {
                    "queries_s": sum(queries.values()),
                    "self_s": dict(timer.self_s),
                    "counts": sweep_counts,
                }
            )
        else:
            for _ in range(SETUP_ASSEMBLIES):
                start = time.perf_counter()
                CompactThermalModel(
                    stack, nx=inputs.GRID_CELLS, ny=inputs.GRID_CELLS
                )
                assemblies.append(time.perf_counter() - start)
            assembly, queries, sweep_counts, residual = _sweep(
                stack, maps, map_ids, reference, outcome, host
            )
            assemblies.append(assembly)
            for name, elapsed in queries.items():
                per_query[name].append(elapsed)
        counts.append(sweep_counts)
        worst = max(worst, residual)
    same_counts(outcome, "grid sweep", counts)

    n_queries = len(inputs.GRID_FLOWS) * len(map_ids)
    typical = list(median_by_key(per_query).values())
    solve_s = sum(typical) / n_queries
    lines = [
        f"grid: maps {map_ids} at {list(inputs.GRID_FLOWS)} ml/min, "
        f"{len(assemblies)} untraced sweeps, {solve_s:.4f} s/query as measured, "
        f"counts {counts[0]}, worst energy residual {worst:.2e}",
    ]
    if not trace:
        raw = {
            "solve_s": solve_s,
            "job_s_p50": percentile(typical, 0.5),
            "job_s_p90": percentile(typical, 0.9),
            "throughput": 1.0 / solve_s,
            "setup_s": statistics.median(assemblies),
            "peak_rss_mb": self_peak_rss_mb(),
        }
        lines.append(host.report(raw))
        return outcome, host.normalize_metrics(raw), lines

    best = min(layer_runs, key=lambda layers: layers["queries_s"])
    layers = best["self_s"]
    sweep_counts = best["counts"]
    # Assembly happens before the first query; it is not query time.
    query_layers = sum(layers.values()) - layers.get("thermal.assembly_s", 0.0)
    unattributed = best["queries_s"] - query_layers
    fallbacks = (
        sweep_counts["solver.fallback.amg_to_iterative"]
        + sweep_counts["solver.fallback.iterative_to_direct"]
    )
    amg_share = (
        layers.get("thermal.krylov_s", 0.0) + layers.get("thermal.amg_setup_s", 0.0)
    ) / best["queries_s"]
    metrics = {
        "grid.wall_s": best["queries_s"],
        **{f"grid.{name}": value for name, value in layers.items()},
        "grid.thermal.amg_setups": sweep_counts["solver.amg.setups"],
        "grid.thermal.krylov_iterations": sweep_counts["solver.amg.iterations"],
        "grid.thermal.fallbacks": fallbacks,
        "grid.thermal.useful_solve_ratio": (n_queries - fallbacks) / n_queries,
        "grid.energy_residual": worst,
        "unattributed_s": unattributed,
        "unattributed_share": unattributed / best["queries_s"],
        "trace_overhead": sum(median_by_key(traced_queries).values())
        / sum(typical)
        - 1.0,
    }
    lines.append(
        f"  traced: krylov + amg setup {amg_share:.1%} of query time, "
        f"unattributed {metrics['unattributed_share']:.1%}, tracing overhead "
        f"{metrics['trace_overhead']:+.1%}"
    )
    return outcome, metrics, lines
