"""closed_loop: in-process Runner jobs of four Fig. 6/7 scenario kinds.

Transient direct-LU stepping, the fuzzy policy, power/leakage and the
two-phase march do almost all the work, and the kinds use them
differently: LC_FUZZY refactorises on flow switches while the air kind
keeps one factor, and only 2t_twophase marches the evaporator.

Each pass runs every kind once, in a seeded order, as a fresh
``Runner`` job (fresh model, fresh factor caches), after a host-speed
sample.  Timings are each kind's median job, stated at a nominal host
speed (see :mod:`pbench.hostspeed`); the work per run is fixed by
``--seconds``.
"""

from __future__ import annotations

import dataclasses
import time
from collections import defaultdict
from typing import Dict, List

from repro.obs.metrics import get_registry
from repro.scenario import Runner

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
from .layers import LayerTimer, closed_loop_layers
from .metrics import KINDS

PASS_SECONDS = 4.0
"""Host seconds of one pass over the four kinds on a 2-vCPU VM; fixes
the number of passes from ``--seconds`` (never from a clock)."""

SETUP_BUILDS = 3
"""Setups timed per untraced job: set-up takes milliseconds, so a few
more samples steady its median at no real cost."""

WARMUP_DURATION_S = 2
"""Simulated seconds of the discarded warm-up job of each kind."""

COUNTERS = (
    "thermal.transient_steps",
    "thermal.transient_cache.misses",
    "thermal.transient_cache.hits",
    "thermal.steady_cache.misses",
    "cooling.march_calls",
    "cooling.march_cache_hits",
    "solver.fallback.amg_to_iterative",
    "solver.fallback.iterative_to_direct",
)
"""Registry counters that must repeat exactly for every job of a kind."""


def passes_for(seconds: int) -> int:
    return max(2, round(seconds / PASS_SECONDS))


def _setup_times(scenario) -> List[float]:
    """Scenario -> ready simulator (assembly included), timed a few times."""
    times = []
    for _ in range(SETUP_BUILDS):
        start = time.perf_counter()
        Runner(scenario).build_simulator()
        times.append(time.perf_counter() - start)
    return times


def _job(scenario, outcome: Outcome, kind: str, expected: dict):
    """One checked Runner job (build + run): ``(wall s, counts)``."""
    registry = get_registry()
    before = registry.snapshot()
    start = time.perf_counter()
    result = Runner(scenario).run()
    wall = time.perf_counter() - start
    counts = counter_deltas(registry.delta_since(before), COUNTERS)
    outcome.record(
        f"closed_loop {kind}",
        checks.mismatches(checks.result_record(result), expected),
    )
    return wall, counts


def run(seed: int, seconds: int, trace: bool) -> tuple:
    """Returns ``(outcome, metrics by name, report lines)``."""
    reference = checks.load_reference()["closed_loop"]
    specs = {kind: inputs.kind_spec(kind) for kind in KINDS}
    sim_seconds = {kind: float(specs[kind].workload.duration) for kind in KINDS}

    for kind in KINDS:  # absorbs imports, pyc compilation and lazy set-up
        short = dataclasses.replace(
            specs[kind],
            workload=dataclasses.replace(
                specs[kind].workload, duration=WARMUP_DURATION_S
            ),
        )
        Runner(short).run()

    outcome = Outcome()
    setups: Dict[str, List[float]] = defaultdict(list)
    walls: Dict[str, List[float]] = defaultdict(list)
    traced_walls: Dict[str, List[float]] = defaultdict(list)
    layer_runs: Dict[str, List[dict]] = defaultdict(list)
    counts: Dict[str, List[dict]] = defaultdict(list)

    timer = LayerTimer()
    host = HostSpeed()
    for index, order in enumerate(inputs.kind_orders(seed, passes_for(seconds))):
        traced = trace and index % 2 == 1
        for kind in order:
            host.sample()
            try:
                if traced:
                    with timer.install(closed_loop_layers()):
                        timer.reset()
                        wall, job_counts = _job(
                            specs[kind], outcome, kind, reference[kind]
                        )
                    traced_walls[kind].append(wall)
                    layer_runs[kind].append(
                        {"wall_s": wall, **timer.self_s, "_total": timer.total()}
                    )
                else:
                    setup = _setup_times(specs[kind])
                    wall, job_counts = _job(
                        specs[kind], outcome, kind, reference[kind]
                    )
                    setups[kind].extend(setup)
                    walls[kind].append(wall)
            except Exception as exc:  # a job that raises is a failed operation
                outcome.record(f"closed_loop {kind}", [f"{type(exc).__name__}: {exc}"])
                continue
            counts[kind].append(job_counts)

    host.sample()
    for kind in KINDS:
        same_counts(outcome, f"closed_loop {kind}", counts[kind])

    typical = median_by_key(walls)
    total = sum(typical.values())
    total_sim = sum(sim_seconds.values())
    lines = [
        f"closed_loop: {sum(map(len, walls.values()))} untraced jobs, "
        f"sim_rate {total_sim / total:.2f} sim_s/s as measured",
        *(
            f"  {kind}: median {typical[kind]:.4f} s for "
            f"{sim_seconds[kind]:.0f} sim s, counts {counts[kind][0]}"
            for kind in KINDS
        ),
    ]
    if not trace:
        raw = {
            "solve_s": total / total_sim,
            "job_s_p50": percentile(list(typical.values()), 0.5),
            "job_s_p90": percentile(list(typical.values()), 0.9),
            "throughput": len(KINDS) / total,
            "setup_s": sum(median_by_key(setups).values()),
            "peak_rss_mb": self_peak_rss_mb(),
        }
        lines.append(host.report(raw))
        return outcome, host.normalize_metrics(raw), lines

    metrics: Dict[str, float] = {}
    unattributed = 0.0
    for kind in KINDS:
        best = min(layer_runs[kind], key=lambda layers: layers["wall_s"])
        job_counts = counts[kind][0]
        factorizations = job_counts["thermal.transient_cache.misses"]
        factor_lookups = factorizations + job_counts["thermal.transient_cache.hits"]
        marches = job_counts["cooling.march_calls"]
        march_lookups = marches + job_counts["cooling.march_cache_hits"]
        rest = best["wall_s"] - best.pop("_total")
        unattributed += rest
        metrics.update(
            {f"{kind}.{name}": value for name, value in best.items()}
        )
        metrics.update(
            {
                f"{kind}.thermal.steps": job_counts["thermal.transient_steps"],
                f"{kind}.thermal.factorizations": factorizations,
                f"{kind}.thermal.factor_hit_ratio": (
                    1.0 - factorizations / factor_lookups if factor_lookups else 0.0
                ),
                f"{kind}.cooling.marches": marches,
                f"{kind}.cooling.march_hit_ratio": (
                    1.0 - marches / march_lookups if march_lookups else 0.0
                ),
                f"{kind}.unattributed_s": rest,
            }
        )
        share = {
            name: metrics.get(f"{kind}.{name}", 0.0) / best["wall_s"]
            for name in ("thermal.step_s", "core.policy_s", "cooling.update_s")
        }
        lines.append(
            f"  {kind} traced: step {share['thermal.step_s']:.1%}, policy "
            f"{share['core.policy_s']:.1%}, cooling.update "
            f"{share['cooling.update_s']:.1%}, unattributed "
            f"{rest / best['wall_s']:.1%} of {best['wall_s']:.4f} s"
        )
    traced_total = sum(median_by_key(traced_walls).values())
    metrics["unattributed_s"] = unattributed
    metrics["unattributed_share"] = unattributed / traced_total
    metrics["trace_overhead"] = traced_total / total - 1.0
    lines.append(
        f"  tracing overhead {metrics['trace_overhead']:+.1%}, unattributed "
        f"{metrics['unattributed_share']:.1%}"
    )
    return outcome, metrics, lines
