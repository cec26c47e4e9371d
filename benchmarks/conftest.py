"""Shared machinery of the benchmark harness.

The Fig. 6 and Fig. 7 benchmarks consume the same grid of closed-loop
simulations (2- and 4-tier stacks x four policies x four workloads), so
the grid is computed once per session and cached.  Trace duration and
grid resolution are chosen to keep a full harness run in minutes while
staying at the calibration resolution of DESIGN.md.

The grid runs as 32 scenarios through the sweep engine's simulation
fan-out, which shares one thermal model between the runs on one stack;
set ``REPRO_BENCH_PROCESSES=<n>`` to spread the runs over ``n`` worker
processes (default: serial, bitwise identical either way).
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple

import pytest

from repro.analysis import run_simulations
from repro.core import SimulationResult
from repro.scenario import PolicySpec, Scenario, StackSpec, WorkloadSpec

TRACE_DURATION = 60
POLICIES = ("AC_LB", "AC_TDVFS_LB", "LC_LB", "LC_FUZZY")
WORKLOADS = ("web", "database", "multimedia", "max-utilisation")
GridKey = Tuple[int, str, str]  # (tiers, policy, workload)


def _bench_processes() -> Optional[int]:
    value = os.environ.get("REPRO_BENCH_PROCESSES", "").strip()
    return int(value) if value else None


def run_policy_grid() -> Dict[GridKey, SimulationResult]:
    """All (tiers, policy, workload) closed-loop runs of Section IV-A."""
    keys = [
        (tiers, policy, workload)
        for tiers in (2, 4)
        for policy in POLICIES
        for workload in WORKLOADS
    ]
    jobs = [
        Scenario(
            stack=StackSpec(tiers=tiers, cooling=PolicySpec(name=policy).cooling),
            workload=WorkloadSpec(name=workload, duration=TRACE_DURATION),
            policy=PolicySpec(name=policy),
            label=f"{tiers}-tier {policy} on {workload}",
        )
        for tiers, policy, workload in keys
    ]
    results = run_simulations(jobs, processes=_bench_processes())
    return {key: result for key, (_, result) in zip(keys, results)}


@pytest.fixture(scope="session")
def policy_grid() -> Dict[GridKey, SimulationResult]:
    return run_policy_grid()


def average_over_workloads(
    grid: Dict[GridKey, SimulationResult],
    tiers: int,
    policy: str,
    attribute: str,
) -> float:
    """Mean of a result attribute over the benchmark set (Fig. 6/7 'avg')."""
    values = [
        getattr(grid[(tiers, policy, workload)], attribute)
        for workload in WORKLOADS
    ]
    return sum(values) / len(values)


APP_WORKLOADS = ("web", "database", "multimedia")


def average_over_app_workloads(
    grid: Dict[GridKey, SimulationResult],
    tiers: int,
    policy: str,
    attribute: str,
) -> float:
    """Mean over the three application benchmarks only.

    Section IV-A's energy-savings statements refer to "the average
    workload" — the real-life application classes (web server, database
    management, multimedia processing); the near-saturation stress
    benchmark is reported separately as "maximum utilization".
    """
    values = [
        getattr(grid[(tiers, policy, workload)], attribute)
        for workload in APP_WORKLOADS
    ]
    return sum(values) / len(values)
