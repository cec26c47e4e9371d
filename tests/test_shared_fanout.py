"""Model sharing in simulation sweeps: shared-model runs match plain ones.

A sweep assembles one thermal model per model hash (stack and solver
spec) that two or more jobs use and reuses it across them (serially, or
copy-on-write in fork workers).  Every run must still equal a plain run
that assembles its own model.
"""

from dataclasses import replace

import pytest

from repro.analysis import run_simulations
from repro.analysis.sweep import _SweepModels
from repro.scenario import (
    PolicySpec,
    Scenario,
    SolverSpec,
    StackSpec,
    WorkloadSpec,
    run_scenario,
)


def _scenario(policy, workload):
    spec = PolicySpec(name=policy)
    return Scenario(
        stack=StackSpec(tiers=2, cooling=spec.cooling),
        workload=WorkloadSpec(name=workload, duration=2),
        policy=spec,
        solver=SolverSpec(nx=12, ny=10),
        label=f"{policy}/{workload}",
    )


def _jobs():
    return [_scenario("LC_LB", workload) for workload in ("web", "database")]


def _plain(jobs):
    """Fresh per-job runs: every job assembles its own model."""
    return [(job.label, run_scenario(job)) for job in jobs]


def _flat(results):
    """Every float of every result, for exact-equality comparison."""
    return [
        (
            key,
            r.workload,
            r.duration,
            r.peak_temperature_c,
            r.chip_energy_j,
            r.pump_energy_j,
            r.hotspot_percent_avg,
            r.hotspot_percent_any,
            r.degradation_percent,
            r.mean_flow_ml_min,
        )
        for key, r in results
    ]


def test_shared_serial_matches_plain():
    jobs = _jobs()
    assert _flat(run_simulations(jobs)) == _flat(_plain(jobs))


@pytest.mark.parametrize("start_method", ["fork", "spawn"], indirect=True)
def test_shared_pool_matches_plain(start_method):
    jobs = _jobs()
    expected = _flat(_plain(jobs))
    got = _flat(run_simulations(jobs, processes=2))
    assert got == expected


def test_worker_reuses_cached_model_across_jobs():
    jobs = _jobs()
    models = _SweepModels(jobs, None)
    first = models.model(jobs[0])
    second = models.model(jobs[1])
    # Same stack and grid: the assembled thermal model is shared ...
    assert first is not None and second is first
    # ... and dropped once the last job of its key has started.
    assert not models.models


def test_model_of_a_single_job_is_not_shared():
    """A key no other job uses gets no sweep model and no prewarm."""
    jobs = _jobs()
    jobs[1] = replace(jobs[1], solver=SolverSpec(nx=13, ny=10))
    models = _SweepModels(jobs, None)
    models.prewarm(jobs)
    assert not models.models
    assert models.model(jobs[0]) is None and models.model(jobs[1]) is None


def _policy_grid():
    """The Fig. 6/7 policies on two workloads: two stacks, four jobs each."""
    return [
        _scenario(policy, workload)
        for policy in ("AC_LB", "AC_TDVFS_LB", "LC_LB", "LC_FUZZY")
        for workload in ("web", "database")
    ]


def test_policies_on_one_stack_share_its_model():
    jobs = _policy_grid()
    # The air policies share the air stack's model, the liquid ones
    # the liquid stack's.
    assert len(_SweepModels(jobs, None).uses) == 2
    assert _flat(run_simulations(jobs)) == _flat(_plain(jobs))


@pytest.mark.parametrize("start_method", ["fork"], indirect=True)
def test_policies_on_one_stack_share_its_model_in_workers(start_method):
    jobs = _policy_grid()
    got = _flat(run_simulations(jobs, processes=2))
    assert got == _flat(_plain(jobs))
