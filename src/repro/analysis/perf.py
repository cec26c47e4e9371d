"""Performance microbenchmarks of the thermal pipeline.

Measures the operations the perf work optimises — model assembly,
steady solves at a fixed flow, transient steps, and a full closed-loop
``SystemSimulator.run`` — and writes them to ``BENCH_thermal.json``
next to the committed seed baseline, so regressions show up as a
speedup ratio drifting below 1.

Only APIs that exist in every revision of the repo are used (model
construction, ``steady_state``, ``TransientStepper.step``,
``SystemSimulator.run``), and all imports are absolute, so this exact
file can be pointed at an older checkout (``PYTHONPATH=<old>/src``
with this module loaded by path) to regenerate
``benchmarks/baseline_seed.json`` with an identical methodology.
Metrics of a subsystem the older checkout lacks (the shared fan-out)
are import-gated and simply drop out of the result dict there.

Methodology notes: timings are means over ``repeats`` after one
warm-up call, except the simulator run (one cold run including its
LU-factorisation warm-up, divided by the simulated duration — the
quantity a user of the benchmark grids experiences).
"""

from __future__ import annotations

import json
import pickle
import time
from pathlib import Path
from typing import Callable, Dict, Optional

from repro.core import SystemSimulator, paper_policies
from repro.geometry import build_3d_mpsoc
from repro.thermal import CompactThermalModel, TransientStepper
from repro.workload import paper_workload_suite

BASELINE_PATH = Path(__file__).resolve().parents[3] / "benchmarks" / "baseline_seed.json"
"""The committed seed measurements (see module docstring)."""

HISTORY_PATH = Path(__file__).resolve().parents[3] / "benchmarks" / "history.jsonl"
"""Append-only benchmark trajectory, one timestamped record per run."""


def _mean_time(fn: Callable[[], object], repeats: int) -> float:
    fn()  # warm-up (allocations, caches, imports)
    start = time.perf_counter()
    for _ in range(repeats):
        fn()
    return (time.perf_counter() - start) / repeats


def bench_fanout_setup(n_jobs: int = 6) -> Dict[str, float]:
    """Per-job setup overhead: a fresh model per job vs the sweep's shared one.

    "plain" is what a scenario job costs without model sharing, as in a
    spawn worker: one pickle round-trip of the job plus building its
    simulator, a full thermal-model assembly included.  "shared" is
    what a simulation sweep pays per job, serial or in a fork worker:
    the job arrives without pickling and its simulator reuses the one
    model the sweep assembled for its model hash.  Either way the job
    builds its policy, trace and faults from the spec.  Measured
    in-process over 2-tier LC_LB jobs at the default grid resolution.
    """
    from repro.analysis.sweep import _SweepModels
    from repro.scenario import PolicySpec, Scenario, WorkloadSpec, build_simulator

    base = Scenario(
        policy=PolicySpec(name="LC_LB"),
        workload=WorkloadSpec(name="database", duration=1),
    )
    jobs = [base.with_label(f"job-{index}") for index in range(n_jobs)]

    build_simulator(jobs[0])  # warm imports and lazy grid caches
    start = time.perf_counter()
    for job in jobs:
        build_simulator(pickle.loads(pickle.dumps(job)))
    plain_ms = (time.perf_counter() - start) / n_jobs * 1e3

    models = _SweepModels(jobs[:1] + jobs, None)
    build_simulator(jobs[0], model=models.model(jobs[0]))  # one assembly
    start = time.perf_counter()
    for job in jobs:
        build_simulator(job, model=models.model(job))
    shared_ms = (time.perf_counter() - start) / n_jobs * 1e3
    return {
        "fanout_setup_plain_ms": plain_ms,
        "fanout_setup_shared_ms": shared_ms,
        "fanout_setup_speedup_x": plain_ms / shared_ms,
    }


def solver_observability() -> Dict[str, object]:
    """How the tiered solver backend behaved on a representative load.

    Exercises the steady and transient paths on the direct, iterative
    and AMG backends of a 2-tier stack and reports the factor-cache
    statistics, the Krylov iteration counts and the fallback counts
    that ``repro bench-thermal`` prints.
    """
    stack = build_3d_mpsoc(2)
    models = [
        ("direct", CompactThermalModel(stack)),
        ("iterative", CompactThermalModel(stack, solver="iterative")),
        ("amg", CompactThermalModel(stack, solver="amg")),
    ]
    powers = {ref: 2.0 for ref in models[0][1].block_masks()}
    for _, model in models:
        for flow in (None, 30.0, 30.0):
            model.steady_state(powers, flow)
    steppers = {}
    for label, model in models:
        stepper = TransientStepper(model, 0.1, model.steady_state(powers))
        for _ in range(5):
            stepper.step(powers)
        steppers[label] = stepper
    return {
        "steady_cache": {
            label: model.steady_cache_info()._asdict()
            for label, model in models
        },
        "transient_cache": {
            label: stepper.cache_info()._asdict()
            for label, stepper in steppers.items()
        },
        "steady_stats": {
            label: model.steady_stats.as_dict()
            for label, model in models
        },
        "transient_stats": {
            label: stepper.stats.as_dict()
            for label, stepper in steppers.items()
        },
    }


def bench_thermal(
    simulate_seconds: float = 10.0,
    repeats: int = 10,
    large_grid: bool = True,
    backend: str = "auto",
) -> Dict[str, float]:
    """Run the microbenchmark suite and return seconds per operation.

    Parameters
    ----------
    simulate_seconds:
        Trace duration of the closed-loop simulator measurement [s].
    repeats:
        Sample count per timed operation.
    large_grid:
        Also time a 100x100 4-tier assembly (the "large grids become
        practical" criterion); one sample, skipped in quick mode.
    backend:
        Solver backend of the steady/transient measurements (``repro
        bench-thermal --backend``); any
        :data:`repro.thermal.krylov.SOLVER_CHOICES` value.  Speedup
        ratios against the committed seed baseline only mean anything
        on the default ``"auto"``.
    """
    results: Dict[str, float] = {}
    for tiers in (2, 4):
        stack = build_3d_mpsoc(tiers)
        results[f"assembly_{tiers}tier_s"] = _mean_time(
            lambda: CompactThermalModel(stack, solver=backend), repeats
        )
        model = CompactThermalModel(stack, solver=backend)
        powers = {ref: 2.0 for ref in model.block_masks()}
        results[f"steady_{tiers}tier_s"] = _mean_time(
            lambda: model.steady_state(powers), repeats
        )
        stepper = TransientStepper(model, 0.1, model.steady_state(powers))
        stepper.step(powers)
        start = time.perf_counter()
        steps = 5 * repeats
        for _ in range(steps):
            stepper.step(powers)
        results[f"transient_step_{tiers}tier_ms"] = (
            (time.perf_counter() - start) / steps * 1e3
        )

    policy = next(p for p in paper_policies() if p.name == "LC_FUZZY")
    suite = paper_workload_suite(threads=32, duration=int(simulate_seconds))
    stack = build_3d_mpsoc(2, policy.cooling)
    start = time.perf_counter()
    SystemSimulator(stack, policy, suite["database"]).run()
    results["simulator_run_s_per_sim_s"] = (
        time.perf_counter() - start
    ) / simulate_seconds

    if large_grid:
        stack = build_3d_mpsoc(4)
        start = time.perf_counter()
        CompactThermalModel(stack, nx=100, ny=100)
        results["assembly_4tier_100x100_s"] = time.perf_counter() - start

    # The shared fan-out metrics only exist from the scalable-backend
    # revision on; skip them silently when this file is pointed at an
    # older checkout.
    try:
        results.update(bench_fanout_setup())
    except ImportError:
        pass
    return results


def speedups(
    results: Dict[str, float], baseline: Dict[str, float]
) -> Dict[str, float]:
    """Baseline/current time ratio per metric present in both.

    ``*_x`` metrics are already ratios (bigger is better, unlike
    times), so they are excluded rather than fed to the regression
    gate with inverted semantics.
    """
    return {
        key: baseline[key] / results[key]
        for key in results
        if key in baseline
        and results[key] > 0.0
        and not key.endswith("_x")
    }


def write_bench_report(
    results: Dict[str, float],
    path: Path,
    baseline_path: Optional[Path] = None,
    extras: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Assemble and write the ``BENCH_thermal.json`` report.

    ``extras`` are merged into the report as additional top-level
    sections (solver observability, the direct↔iterative crossover
    curve) — anything previously recorded at those keys in an existing
    report at ``path`` is preserved unless overwritten.
    """
    baseline: Optional[Dict[str, float]] = None
    if baseline_path is not None and Path(baseline_path).exists():
        baseline = json.loads(Path(baseline_path).read_text())
    report: Dict[str, object] = {}
    if Path(path).exists():
        try:
            previous = json.loads(Path(path).read_text())
        except (OSError, ValueError):
            previous = {}
        # Carry sections other tools recorded (e.g. the crossover
        # benchmark) across plain bench-thermal reruns.
        report.update(
            {
                key: value
                for key, value in previous.items()
                if key not in ("description", "results", "baseline", "speedup")
            }
        )
    report.update(
        {
            "description": (
                "Thermal-pipeline microbenchmarks; speedup = seed time / "
                "current time, measured by repro.analysis.perf"
            ),
            "results": results,
            "baseline": baseline,
            "speedup": speedups(results, baseline) if baseline else None,
        }
    )
    if extras:
        report.update(extras)
    Path(path).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report


def append_history(
    results: Dict[str, float],
    path: Optional[Path] = None,
    **extra: object,
) -> Path:
    """Append one timestamped record to the benchmark trajectory.

    Every ``repro bench-thermal`` run — gated or not — adds one JSONL
    line, so ``benchmarks/history.jsonl`` is never empty and the
    perf-regression watchdog (``repro report bench --check``, see
    :func:`repro.obs.live.check_bench_history`) always has a
    trajectory to compare the newest run against.  The append is one
    O_APPEND write of one line, atomic enough for concurrent CI runs.
    """
    import os

    from repro import __version__

    path = HISTORY_PATH if path is None else Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    record: Dict[str, object] = {
        "t": time.time(),
        "version": __version__,
        "results": results,
    }
    record.update(extra)
    line = json.dumps(record, sort_keys=True) + "\n"
    fd = os.open(str(path), os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        os.write(fd, line.encode("utf-8"))
    finally:
        os.close(fd)
    return path


def read_history(path: Optional[Path] = None) -> list:
    """Decoded trajectory records, oldest first (bad lines skipped)."""
    path = HISTORY_PATH if path is None else Path(path)
    if not path.exists():
        return []
    entries = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if isinstance(record, dict):
            entries.append(record)
    return entries


def write_baseline(
    results: Dict[str, float], path: Optional[Path] = None
) -> Path:
    """Regenerate the committed seed baseline from current results.

    Used by ``repro bench-thermal --update-baseline`` after a
    deliberate perf change, so subsequent gates compare against the
    new expected timings instead of reporting a permanent "speedup".
    """
    path = BASELINE_PATH if path is None else Path(path)
    path.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    return path
