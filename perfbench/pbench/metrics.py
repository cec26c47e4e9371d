"""Metric names and units, mirrored by ``BENCHMARK.json``.

Every run prints every name of its mode: the end-to-end metrics without
tracing, the per-layer metrics with it.  A per-layer metric of a layer
the workload never calls reads 0.
"""

from __future__ import annotations

from typing import Dict, Mapping

END_TO_END: Dict[str, str] = {
    "solve_s": "s",
    "job_s_p50": "s",
    "job_s_p90": "s",
    "throughput": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

KINDS = ("2t_fuzzy", "4t_fuzzy", "2t_twophase", "2t_tdvfs")
"""closed_loop job kinds, in reference order."""

KIND_LAYERS: Dict[str, str] = {
    "wall_s": "s",
    "workload.trace_s": "s",
    "thermal.assembly_s": "s",
    "thermal.steady_s": "s",
    "thermal.step_s": "s",
    "thermal.steps": "count",
    "thermal.factorizations": "count",
    "thermal.factor_hit_ratio": "ratio",
    "core.policy_s": "s",
    "power.block_powers_s": "s",
    "thermal.sensors_s": "s",
    "sched.balance_s": "s",
    "thermal.reduce_s": "s",
    "cooling.update_s": "s",
    "cooling.marches": "count",
    "cooling.march_hit_ratio": "ratio",
    "unattributed_s": "s",
}

GRID_LAYERS: Dict[str, str] = {
    "grid.wall_s": "s",
    "grid.thermal.assembly_s": "s",
    "grid.thermal.amg_setup_s": "s",
    "grid.thermal.amg_setups": "count",
    "grid.thermal.krylov_s": "s",
    "grid.thermal.krylov_iterations": "count",
    "grid.thermal.rhs_s": "s",
    "grid.thermal.fallbacks": "count",
    "grid.thermal.useful_solve_ratio": "ratio",
    "grid.energy_residual": "ratio",
}

SERVICE_LAYERS: Dict[str, str] = {
    "service.round_trip_s": "s",
    "service.submit_s": "s",
    "service.queue_wait_s": "s",
    "service.run_s": "s",
    "service.result_s": "s",
    "scenario.worker_solve_s": "s",
    "service.worker_overhead_s": "s",
    "service.attempts": "count",
}

COMMON_LAYERS: Dict[str, str] = {
    "unattributed_s": "s",
    "unattributed_share": "ratio",
    "trace_overhead": "ratio",
}

PER_LAYER: Dict[str, str] = {
    **COMMON_LAYERS,
    **{
        f"{kind}.{name}": unit
        for kind in KINDS
        for name, unit in KIND_LAYERS.items()
    },
    **GRID_LAYERS,
    **SERVICE_LAYERS,
}


def end_to_end(values: Mapping[str, float]):
    """``values`` keyed like :data:`END_TO_END`, with units attached."""
    if set(values) != set(END_TO_END):
        raise ValueError(
            f"end-to-end metrics {sorted(values)} != {sorted(END_TO_END)}"
        )
    return {name: (float(values[name]), END_TO_END[name]) for name in END_TO_END}


def per_layer(values: Mapping[str, float]):
    """Every :data:`PER_LAYER` metric; names the workload lacks read 0."""
    unknown = set(values) - set(PER_LAYER)
    if unknown:
        raise ValueError(f"unknown per-layer metrics {sorted(unknown)}")
    return {
        name: (float(values.get(name, 0.0)), unit)
        for name, unit in PER_LAYER.items()
    }
