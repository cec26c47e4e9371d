"""Kept models in simulation sweeps: runs on a kept model match plain ones.

A simulation sweep runs the jobs of one model hash (stack and solver
spec) back to back on a :class:`~repro.scenario.runner.KeptModel`: the
sweep's own when serial, each worker's own in processes, where a worker
parks after a job and takes the next job of its hash.  Every run must
still equal a plain run that assembles its own model, and no worker may
outlive the sweep.
"""

import multiprocessing
import os
from dataclasses import replace

import pytest

from repro.analysis import run_simulations
from repro.scenario import (
    FaultSpec,
    PolicySpec,
    ResultCache,
    Scenario,
    SensorFaultSpec,
    SolverSpec,
    StackSpec,
    WorkloadSpec,
    run_scenario,
    runner,
)
from repro.scenario.runner import KeptModel
from repro.workers import AttemptTable


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
    kept = KeptModel()
    first = kept.for_run(jobs[0])
    # Same stack and grid: the assembled thermal model is kept ...
    assert first is not None and kept.for_run(jobs[1]) is first
    # ... until a job of another hash replaces it.
    other = replace(jobs[1], solver=SolverSpec(nx=13, ny=10))
    assert kept.for_run(other) is not first
    assert kept.key == other.model_hash()


def test_a_cached_job_gets_no_model(tmp_path):
    jobs = _jobs()
    cache = ResultCache(tmp_path)
    run_scenario(jobs[0], cache=cache)
    kept = KeptModel()
    assert kept.for_run(jobs[0], cache) is None
    assert kept.model is None
    assert kept.for_run(jobs[1], cache) is not None


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
    assert len({job.model_hash() for job in jobs}) == 2
    assert _flat(run_simulations(jobs)) == _flat(_plain(jobs))


@pytest.mark.parametrize("start_method", ["fork"], indirect=True)
def test_policies_on_one_stack_share_its_model_in_workers(start_method):
    jobs = _policy_grid()
    got = _flat(run_simulations(jobs, processes=2))
    assert got == _flat(_plain(jobs))


def test_interleaved_hashes_run_grouped_and_return_in_job_order(monkeypatch):
    grid = _policy_grid()
    jobs = [job for pair in zip(grid[:4], grid[4:]) for job in pair]
    assert len({job.model_hash() for job in jobs[:2]}) == 2
    expected = _flat(_plain(jobs))
    builds = []
    build = runner.build_model

    def counted(job):
        builds.append(job.model_hash())
        return build(job)

    monkeypatch.setattr(runner, "build_model", counted)
    # Air, liquid, air, ... run as the air jobs, then the liquid ones:
    # one kept model built per hash, not one per change of hash.
    assert _flat(run_simulations(jobs)) == expected
    assert builds == [jobs[0].model_hash(), jobs[1].model_hash()]


def _count_starts(monkeypatch) -> list:
    """Record the pid of every worker an attempt table starts."""
    pids = []
    start = AttemptTable.start

    def counted(self, *args, **kwargs):
        attempt = start(self, *args, **kwargs)
        pids.append(attempt.process.pid)
        return attempt

    monkeypatch.setattr(AttemptTable, "start", counted)
    return pids


def _gone(pids) -> bool:
    """Whether every one of ``pids`` has exited and no child is left."""
    return multiprocessing.active_children() == [] and not any(
        _alive(pid) for pid in pids
    )


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


@pytest.mark.parametrize("start_method", ["fork", "spawn"], indirect=True)
def test_same_hash_jobs_on_two_processes_start_two_workers(
    start_method, monkeypatch
):
    pids = _count_starts(monkeypatch)
    jobs = [
        replace(_scenario("LC_LB", workload), label=f"{workload}-{seed}")
        for seed in range(2)
        for workload in ("web", "database")
    ]
    assert len({job.model_hash() for job in jobs}) == 1
    assert _flat(run_simulations(jobs, processes=2)) == _flat(_plain(jobs))
    assert 0 < len(pids) <= 2
    assert _gone(pids)


@pytest.mark.parametrize("start_method", ["fork", "spawn"], indirect=True)
def test_no_worker_outlives_a_strict_sweep_that_raises(start_method, monkeypatch):
    pids = _count_starts(monkeypatch)
    jobs = [_scenario("LC_LB", workload) for workload in ("web", "database")]
    # A dead sensor on a block the stack lacks: the simulator rejects it
    # when it installs the fault, on the worker's kept model.
    missing = SensorFaultSpec(kind="dead", layer="tier0_die", block="core99")
    bad = replace(jobs[1], faults=FaultSpec(sensors=(missing,)))
    with pytest.raises(KeyError):
        run_simulations([jobs[0], bad, *jobs], processes=2)
    assert pids and _gone(pids)
