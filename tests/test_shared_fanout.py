"""Model sharing in simulation sweeps: shared-model runs match plain ones.

A sweep assembles one thermal model per stack and grid that two or
more jobs use and reuses it across them (serially, or copy-on-write in
fork workers).  Every run must still equal a plain run that assembles
its own model.
"""

import pytest

from repro.analysis import SimulationJob, run_simulations
from repro.analysis.sweep import _SweepModels
from repro.core import paper_policies
from repro.geometry import build_3d_mpsoc
from repro.workload import paper_workload_suite


def _jobs():
    policies = {p.name: p for p in paper_policies()}
    policy = policies["LC_LB"]
    suite = paper_workload_suite(threads=32, duration=2)
    stack = build_3d_mpsoc(2, policy.cooling)
    return [
        SimulationJob(
            stack=stack,
            policy=policy,
            trace=suite[workload],
            key=workload,
            kwargs={"nx": 12, "ny": 10},
        )
        for workload in ("web", "database")
    ]


def _plain(jobs):
    """Fresh per-job runs: every job assembles its own model."""
    return [(job.key, job.run()) for job in jobs]


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
    jobs[1].stack = build_3d_mpsoc(2, jobs[1].policy.cooling)
    models = _SweepModels(jobs, None)
    models.prewarm(jobs)
    assert not models.models
    assert models.model(jobs[0]) is None and models.model(jobs[1]) is None
