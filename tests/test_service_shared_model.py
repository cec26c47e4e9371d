"""The job service's shared model: set-up built once, inherited by every job.

The supervisor keeps one prewarmed thermal model, of the last model
hash it dispatched: once a worker has finished a job of that hash, the
next first dispatch of it builds the model, each forked worker inherits
it copy-on-write, and a dispatch of another hash drops it (DESIGN.md
section 13).  A job on it must equal a fresh run bitwise, the
supervisor's copy must never change, and the ``service.models.*``
counters must say what happened.
"""

from __future__ import annotations

import dataclasses
import gc
import multiprocessing
import os
import time

import numpy as np
import pytest

from repro.obs import MemorySink, get_registry, get_tracer
from repro.scenario import (
    CoolingSpec,
    PolicySpec,
    ResultCache,
    Runner,
    Scenario,
    SolverSpec,
    StackSpec,
    WorkloadSpec,
)
from repro.service import (
    JobStore,
    ScenarioJobService,
    ServiceClient,
    Supervisor,
    supervisor,
)
from repro.thermal.model import CompactThermalModel
from repro.thermal.solver import TransientStepper
from tests.chaos import NX, NY, make_scenario

COUNTERS = ("prewarmed", "shared", "prewarm_failures")

SERVICE_SPEC = Scenario(
    stack=StackSpec(tiers=2, cooling="liquid"),
    workload=WorkloadSpec(name="web", source="generator", duration=2, seed=5000),
    policy=PolicySpec(name="LC_FUZZY"),
)
"""The benchmark's service job: a 2-s 2-tier LC_FUZZY run on the full grid."""

AIR_SPEC = Scenario(
    stack=StackSpec(tiers=2, cooling="air"),
    workload=WorkloadSpec(name="database", duration=2, seed=7),
    policy=PolicySpec(name="AC_TDVFS_LB"),
    record_series=True,
)
"""An air-cooled AC_TDVFS_LB run, with its time series compared too."""

AMG_SPEC = dataclasses.replace(
    SERVICE_SPEC, solver=SolverSpec(nx=NX, ny=NY, backend="amg")
)
"""A small grid whose steady rung is an AMG hierarchy, not an LU factor."""

TWO_PHASE_SPEC = dataclasses.replace(
    SERVICE_SPEC,
    stack=StackSpec(
        tiers=2, cooling="liquid", two_phase=True, cooling_backend=CoolingSpec()
    ),
)
"""A dynamic two-phase stack: flow commands re-march its evaporator."""


def _seeded(scenario: Scenario, seed: int) -> Scenario:
    """``scenario`` with another workload seed: same model, new content."""
    workload = dataclasses.replace(scenario.workload, seed=seed)
    return dataclasses.replace(scenario, workload=workload)


def _small(seed: int, nx: int = NX) -> Scenario:
    """A fast chaos-grid job; ``nx`` selects its model hash."""
    return dataclasses.replace(
        _seeded(make_scenario(f"small-{seed}"), seed),
        solver=SolverSpec(nx=nx, ny=NY),
    )


def _hex(value):
    """Every float of ``value`` as ``float.hex``, for bitwise comparison."""
    if isinstance(value, float):
        return float.hex(value)
    if isinstance(value, np.ndarray):
        return [float.hex(float(v)) for v in value.ravel()]
    if isinstance(value, dict):
        return {key: _hex(item) for key, item in value.items()}
    return value


def _fields(result) -> dict:
    return {
        field.name: _hex(getattr(result, field.name))
        for field in dataclasses.fields(result)
    }


def _counts() -> dict:
    registry = get_registry()
    return {
        name: registry.counter(f"service.models.{name}").value
        for name in COUNTERS
    }


def _moved(before: dict) -> dict:
    after = _counts()
    return {name: after[name] - before[name] for name in COUNTERS}


def _recording_supervisor(root, monkeypatch, max_workers: int = 1) -> Supervisor:
    """A loop-free supervisor; its ``models`` lists the ``model``
    argument of every worker it starts, in dispatch order."""
    instance = Supervisor(JobStore(root, fsync=False), max_workers=max_workers)
    instance.models = []
    start = instance.workers.start

    def recording_start(key, target, args, **kwargs):
        instance.models.append(args[-1])
        return start(key, target, args, **kwargs)

    monkeypatch.setattr(instance.workers, "start", recording_start)
    return instance


@pytest.fixture()
def sup(tmp_path, monkeypatch):
    instance = _recording_supervisor(tmp_path / "svc", monkeypatch)
    yield instance
    instance.shutdown()
    instance.store.close()


def _run(sup: Supervisor, scenarios, timeout: float = 120.0) -> list:
    """Submit ``scenarios`` and tick until every job is terminal."""
    jobs = [sup.store.submit(scenario)[0] for scenario in scenarios]
    deadline = time.monotonic() + timeout
    while sup.busy or not all(job.state.terminal for job in jobs):
        assert time.monotonic() < deadline, "jobs never finished"
        sup.tick()
        sup.workers.wait(0.05)
    return [sup.store.jobs[job.job_id] for job in jobs]


def _instant_worker(conn, job_id, *_args) -> None:
    conn.send({"kind": "done", "cached": False, "wall_s": 0.0})


def _crash_once(marker, worker):
    """A worker entry whose first call dies as an out-of-memory kill
    would, and whose later calls run ``worker``."""

    def crash_once(*args) -> None:
        try:
            os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
        except FileExistsError:
            worker(*args)
        else:
            os._exit(70)

    return crash_once


@pytest.mark.parametrize(
    "base",
    [SERVICE_SPEC, AIR_SPEC, AMG_SPEC, TWO_PHASE_SPEC],
    ids=["lc-fuzzy-service", "air-tdvfs", "amg", "two-phase"],
)
def test_job_on_the_prewarmed_model_matches_a_fresh_run(sup, base):
    scenarios = [_seeded(base, seed) for seed in (11, 12)]
    before = _counts()
    jobs = _run(sup, scenarios)
    assert [job.state.value for job in jobs] == ["DONE", "DONE"]
    assert _moved(before) == {"prewarmed": 1, "shared": 1, "prewarm_failures": 0}
    assert sup.models[0] is None
    assert isinstance(sup.models[1], CompactThermalModel)
    for scenario in scenarios:
        assert _fields(sup.store.cache.get(scenario)) == _fields(
            Runner(scenario).run()
        )


def test_service_jobs_on_the_shared_model_match_fresh_runs(tmp_path):
    service = ScenarioJobService(
        tmp_path / "svc",
        max_workers=1,
        fsync=False,
        poll_interval_s=0.02,
        drain_timeout_s=10.0,
    )
    scenarios = [_seeded(SERVICE_SPEC, seed) for seed in (21, 22, 23)]
    before = _counts()
    service.start_background()
    try:
        client = ServiceClient(service.address)
        ids = [client.submit(s.to_dict())["job_id"] for s in scenarios]
        for job_id in ids:
            assert client.wait_for(job_id, timeout=120.0)["state"] == "DONE"
        metrics = client.request({"op": "metrics"})["metrics"]
    finally:
        service.stop_background()
    # The first job ran alone, the second built the model, the third
    # reused it; the metrics verb reports all three counters.
    assert _moved(before) == {"prewarmed": 1, "shared": 2, "prewarm_failures": 0}
    for name in COUNTERS:
        assert metrics[f"service.models.{name}"]["type"] == "counter"
    cache = ResultCache(service.root / "cache")
    for scenario in scenarios:
        assert _fields(cache.get(scenario)) == _fields(Runner(scenario).run())


def test_jobs_leave_the_supervisors_model_unchanged(sup):
    _run(sup, [_small(1), _small(2)])
    model = sup.models[1]
    signature = model.flow_signature()
    cache = model.steady_cache_info()
    jobs = _run(sup, [_small(3), _small(4)])
    assert [job.state.value for job in jobs] == ["DONE", "DONE"]
    assert sup.models[2:] == [model, model]
    assert model.flow_signature() == signature
    assert model.steady_cache_info() == cache
    assert cache.currsize == 1
    # Transient factors live in a run's stepper, and no stepper of the
    # shared model ever exists in the supervisor.
    gc.collect()
    assert not [
        obj
        for obj in gc.get_objects()
        if isinstance(obj, TransientStepper) and obj.model is model
    ]


@pytest.mark.parametrize(
    "widths, prewarmed, shared",
    [
        ([NX], 0, 0),
        ([NX] * 4, 1, 3),
        ([NX, NX + 1, NX, NX + 1], 0, 0),
    ],
    ids=["single", "run-of-four", "alternating"],
)
def test_dispatch_sequences_build_once_per_run_of_a_hash(
    sup, monkeypatch, widths, prewarmed, shared
):
    monkeypatch.setattr(supervisor, "worker_main", _instant_worker)
    before = _counts()
    jobs = _run(sup, [_small(seed, nx) for seed, nx in enumerate(widths)])
    assert all(job.state.value == "DONE" for job in jobs)
    assert _moved(before) == {
        "prewarmed": prewarmed,
        "shared": shared,
        "prewarm_failures": 0,
    }
    passed = [model for model in sup.models if model is not None]
    assert len(passed) == shared
    assert len({id(model) for model in passed}) == prewarmed


def test_a_cached_result_does_not_show_that_the_set_up_completes(
    sup, monkeypatch
):
    def cached_worker(conn, job_id, *_args) -> None:
        conn.send({"kind": "done", "cached": True, "wall_s": 0.0})

    monkeypatch.setattr(supervisor, "worker_main", cached_worker)
    before = _counts()
    jobs = _run(sup, [_small(seed) for seed in range(3)])
    assert all(job.state.value == "DONE" for job in jobs)
    assert sup.models == [None, None, None]
    assert _moved(before) == {"prewarmed": 0, "shared": 0, "prewarm_failures": 0}


def test_a_failed_prewarm_is_counted_and_jobs_run_as_before(sup, monkeypatch):
    def broken(self) -> None:
        raise MemoryError("no room for the steady factor")

    monkeypatch.setattr(CompactThermalModel, "prewarm", broken)
    before = _counts()
    sink = MemorySink()
    get_tracer().add_sink(sink)
    try:
        jobs = _run(sup, [_small(seed) for seed in range(3)])
    finally:
        get_tracer().remove_sink(sink)
    assert [(job.state.value, job.attempts) for job in jobs] == [("DONE", 1)] * 3
    # Built once per run of a hash: the third job does not try again.
    assert _moved(before) == {"prewarmed": 0, "shared": 0, "prewarm_failures": 1}
    assert sup.models == [None, None, None]
    (failed,) = [r for r in sink.records if r.get("name") == "service.prewarm_failed"]
    assert failed["attrs"]["error_type"] == "MemoryError"
    assert "broken" in failed["attrs"]["traceback"]


def test_a_retry_after_a_crash_builds_no_model(sup, monkeypatch, tmp_path):
    # No worker has yet shown that the set-up completes, so the retry
    # of a job whose worker died must not build it in the supervisor.
    crash = _crash_once(tmp_path / "crashed", supervisor.worker_main)
    monkeypatch.setattr(supervisor, "worker_main", crash)
    before = _counts()
    (job,) = _run(sup, [_small(1)])
    assert (job.state.value, job.attempts) == ("DONE", 2)
    assert sup.models == [None, None]
    assert _moved(before) == {"prewarmed": 0, "shared": 0, "prewarm_failures": 0}
    # A job of the hash has finished now, so the next one builds it.
    (job,) = _run(sup, [_small(2)])
    assert job.state.value == "DONE"
    assert _moved(before) == {"prewarmed": 1, "shared": 1, "prewarm_failures": 0}


def test_a_retry_builds_no_model_even_once_its_hash_has_finished(
    tmp_path, monkeypatch
):
    # Two jobs start together: one worker dies, the other finishes, and
    # the retry (after its backoff) is still not a first dispatch.
    crash = _crash_once(tmp_path / "crashed", _instant_worker)
    monkeypatch.setattr(supervisor, "worker_main", crash)
    sup = _recording_supervisor(tmp_path / "svc", monkeypatch, max_workers=2)
    before = _counts()
    try:
        jobs = _run(sup, [_small(1), _small(2)])
        assert sorted(job.attempts for job in jobs) == [1, 2]
        assert _moved(before)["prewarmed"] == 0
        (job,) = _run(sup, [_small(3)])
    finally:
        sup.shutdown()
        sup.store.close()
    assert all(job.state.value == "DONE" for job in jobs + [job])
    assert sup.models[:3] == [None, None, None]
    assert _moved(before) == {"prewarmed": 1, "shared": 1, "prewarm_failures": 0}


def test_no_model_is_passed_without_fork(tmp_path, monkeypatch):
    monkeypatch.setattr(
        multiprocessing, "get_start_method", lambda allow_none=False: "spawn"
    )
    monkeypatch.setattr(supervisor, "worker_main", _instant_worker)
    sup = _recording_supervisor(tmp_path / "svc", monkeypatch)
    before = _counts()
    try:
        jobs = _run(sup, [_small(seed) for seed in range(3)])
    finally:
        sup.shutdown()
        sup.store.close()
    assert all(job.state.value == "DONE" for job in jobs)
    assert sup.models == [None, None, None]
    assert _moved(before) == {"prewarmed": 0, "shared": 0, "prewarm_failures": 0}
