"""Warm service workers: one worker runs successive jobs of a model hash.

A service worker keeps its jobs' thermal model, with every LU factor it
has built, and after a job that ends ``DONE`` it parks until the
supervisor hands it the next job of the same ``Scenario.model_hash()``
(DESIGN.md section 13).  Every job on a warm worker must equal a fresh
run bitwise; a worker that raised, timed out or was cancelled takes no
further job; an idle worker that dies costs the next job nothing; and
no worker, idle or busy, outlives the service.
"""

from __future__ import annotations

import dataclasses
import os
import signal
import time

import numpy as np
import pytest

from repro.obs import get_registry
from repro.scenario import (
    CoolingSpec,
    FaultSpec,
    FlowFaultSpec,
    PolicySpec,
    ResultCache,
    Runner,
    Scenario,
    SensorFaultSpec,
    SolverSpec,
    StackSpec,
    WorkloadSpec,
)
from repro.service import (
    JobStore,
    RetryPolicy,
    ScenarioJobService,
    ServiceClient,
    Supervisor,
    supervisor,
)
from repro.workers import EXIT_GRACE_S, error_report
from tests.chaos import NX, NY, ServiceHarness, make_scenario, read_run_log

COUNTERS = ("forked", "handovers")

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

FAULTED_SPEC = dataclasses.replace(
    SERVICE_SPEC,
    faults=FaultSpec(
        sensors=(
            SensorFaultSpec(kind="stuck", layer="tier0_die", block="core0",
                            value_k=330.0, start=0.5),
        ),
        flows=(
            FlowFaultSpec(kind="pump-degradation", remaining_fraction=0.6,
                          start=1.0),
        ),
    ),
)
"""A faulted run: a stuck sensor and a degraded pump on the kept model."""


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
        name: registry.counter(f"service.workers.{name}").value
        for name in COUNTERS
    }


def _moved(before: dict) -> dict:
    after = _counts()
    return {name: after[name] - before[name] for name in COUNTERS}


def _alive(pid: int) -> bool:
    """Whether ``pid`` runs; a zombie nobody has reaped yet counts as gone."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return True


def _wait_gone(pids, timeout: float) -> list:
    """Pids still alive after ``timeout`` seconds."""
    deadline = time.monotonic() + timeout
    alive = [pid for pid in pids if _alive(pid)]
    while alive and time.monotonic() < deadline:
        time.sleep(0.02)
        alive = [pid for pid in alive if _alive(pid)]
    return alive


@pytest.fixture()
def sup(tmp_path):
    """A loop-free supervisor with one slot, shut down after the test."""
    instance = Supervisor(
        JobStore(tmp_path / "svc", fsync=False),
        max_workers=1,
        retry=RetryPolicy(retries=0),
        run_log=str(tmp_path / "svc" / "runs.jsonl"),
    )
    yield instance
    instance.shutdown()
    instance.store.close()


def _settle(sup: Supervisor, jobs, timeout: float = 120.0) -> list:
    """Tick until every one of ``jobs`` is terminal and no worker runs."""
    deadline = time.monotonic() + timeout
    while sup.busy or not all(job.state.terminal for job in jobs):
        assert time.monotonic() < deadline, "jobs never finished"
        sup.tick()
        sup.workers.wait(0.05)
    return [sup.store.jobs[job.job_id] for job in jobs]


def _run(sup: Supervisor, scenarios) -> list:
    """Submit ``scenarios`` and tick until every job is terminal."""
    return _settle(sup, [sup.store.submit(scenario)[0] for scenario in scenarios])


def _pids(sup: Supervisor) -> list:
    """The worker pid of every solve in the run log, in order."""
    return [entry["pid"] for entry in read_run_log(sup.store.root)]


# ---------------------------------------------------------------------------
# bitwise: consecutive jobs on one warm worker equal fresh runs
# ---------------------------------------------------------------------------


def _serve_warm(tmp_path, scenarios, queued: bool) -> None:
    """Run ``scenarios`` through a one-slot ``ScenarioJobService`` and
    check that one warm worker ran them all and that each equals a fresh
    run bitwise.  ``queued`` submits every job before waiting for any;
    otherwise each is submitted once the one before it is ``DONE``."""
    service = ScenarioJobService(
        tmp_path / "svc",
        max_workers=1,
        fsync=False,
        poll_interval_s=0.02,
        drain_timeout_s=10.0,
    )
    before = _counts()
    service.start_background()
    try:
        client = ServiceClient(service.address)
        ids = []
        for scenario in scenarios:
            ids.append(client.submit(scenario.to_dict())["job_id"])
            if not queued:  # each job finds the worker parked
                job = client.wait_for(ids[-1], timeout=120.0)
                assert (job["state"], job["attempts"]) == ("DONE", 1)
        for job_id in ids:
            job = client.wait_for(job_id, timeout=120.0)
            assert (job["state"], job["attempts"]) == ("DONE", 1)
        metrics = client.request({"op": "metrics"})["metrics"]
    finally:
        service.stop_background()
    assert _moved(before) == {"forked": 1, "handovers": len(scenarios) - 1}
    for name in COUNTERS:
        assert metrics[f"service.workers.{name}"]["type"] == "counter"
    assert len(set(entry["pid"] for entry in read_run_log(service.root))) == 1
    cache = ResultCache(service.root / "cache")
    for scenario in scenarios:
        assert _fields(cache.get(scenario)) == _fields(Runner(scenario).run())


@pytest.mark.parametrize(
    "base",
    [SERVICE_SPEC, AIR_SPEC, AMG_SPEC, TWO_PHASE_SPEC, FAULTED_SPEC],
    ids=["lc-fuzzy-service", "air-tdvfs", "amg", "two-phase", "faulted"],
)
def test_warm_jobs_match_fresh_runs(tmp_path, base):
    _serve_warm(tmp_path, [_seeded(base, seed) for seed in (21, 22, 23)], False)


def test_queued_service_jobs_run_on_one_warm_worker(tmp_path):
    # Submitted together: the second and third job wait in the queue
    # while the first runs, then each is handed to the parked worker.
    _serve_warm(tmp_path, [_seeded(SERVICE_SPEC, seed) for seed in (31, 32, 33)], True)


# ---------------------------------------------------------------------------
# lifecycle
# ---------------------------------------------------------------------------


def test_jobs_of_one_hash_reuse_the_parked_worker(sup):
    jobs = _run(sup, [_small(1)])
    (parked,) = sup.workers.parked
    pid = parked.process.pid
    before = _counts()
    jobs += _run(sup, [_small(2), _small(3)])
    assert [(job.state.value, job.attempts) for job in jobs] == [("DONE", 1)] * 3
    assert _moved(before) == {"forked": 0, "handovers": 2}
    assert _pids(sup) == [pid] * 3


@pytest.mark.parametrize("poll_first", [True, False], ids=["polled", "at-hand-over"])
def test_idle_worker_killed_between_jobs_costs_nothing(
    sup, poll_first
):
    _run(sup, [_small(1)])
    (parked,) = sup.workers.parked
    pid = parked.process.pid
    os.kill(pid, signal.SIGKILL)
    parked.process.join(10.0)  # dead; whether the table noticed is the case
    deaths = get_registry().counter("service.worker.deaths").value
    before = _counts()
    job, _ = sup.store.submit(_small(2))
    if poll_first:
        sup.poll()
        assert not sup.workers.parked
    assert sup.dispatch_pending() == 1
    (job,) = _settle(sup, [job])
    assert (job.state.value, job.attempts) == ("DONE", 1)
    assert _moved(before) == {"forked": 1, "handovers": 0}
    assert get_registry().counter("service.worker.deaths").value == deaths
    assert sup.breaker.snapshot() == {}
    assert _pids(sup)[0] == pid != _pids(sup)[1]


def _scripted(real):
    """A worker entry that raises for the label ``boom``, hangs for
    ``hang`` and runs ``real`` otherwise, in the same warm worker."""

    def scripted(conn, job_id, scenario_dict, *rest, **kwargs) -> None:
        label = scenario_dict.get("label")
        if label == "boom":
            conn.send(error_report(RuntimeError("boom")))
        elif label == "hang":
            time.sleep(60.0)
        else:
            real(conn, job_id, scenario_dict, *rest, **kwargs)

    return scripted


def _labelled(scenario: Scenario, label: str) -> Scenario:
    return dataclasses.replace(scenario, label=label)


def _dispatched(sup: Supervisor, scenario: Scenario):
    """Submit and dispatch ``scenario``; its job and its worker's pid."""
    job, _ = sup.store.submit(scenario)
    assert sup.dispatch_pending() == 1
    return job, sup.store.jobs[job.job_id].worker_pid


def test_a_worker_whose_job_raised_takes_no_further_job(sup, monkeypatch):
    monkeypatch.setattr(supervisor, "worker_main", _scripted(supervisor.worker_main))
    _run(sup, [_small(1)])
    (parked,) = sup.workers.parked
    pid = parked.process.pid
    before = _counts()
    job, worker = _dispatched(sup, _labelled(_small(2), "boom"))
    (failed,) = _settle(sup, [job])
    # The job raised on the parked worker, which then took no more.
    assert (failed.state.value, worker) == ("FAILED", pid)
    assert not sup.workers.parked
    assert _wait_gone([pid], EXIT_GRACE_S + 1.0) == []
    (after,) = _run(sup, [_small(3)])
    assert after.state.value == "DONE"
    assert _pids(sup)[0] == pid != _pids(sup)[1]
    assert _moved(before) == {"forked": 1, "handovers": 1}


def test_a_timed_out_job_kills_its_warm_worker(tmp_path, monkeypatch):
    monkeypatch.setattr(supervisor, "worker_main", _scripted(supervisor.worker_main))
    sup = Supervisor(
        JobStore(tmp_path / "svc", fsync=False),
        max_workers=1,
        retry=RetryPolicy(retries=0),
        timeout_s=4.0,
        run_log=str(tmp_path / "svc" / "runs.jsonl"),
    )
    try:
        _run(sup, [_small(1)])
        (parked,) = sup.workers.parked
        pid = parked.process.pid
        job, worker = _dispatched(sup, _labelled(_small(2), "hang"))
        (hung,) = _settle(sup, [job])
        assert hung.state.value == "FAILED" and "deadline" in hung.error
        assert worker == pid
        assert not sup.workers.parked and not sup.workers.running
        (job,) = _run(sup, [_small(3)])
        assert job.state.value == "DONE"
        assert _pids(sup)[0] == pid != _pids(sup)[1]
    finally:
        sup.shutdown()
        sup.store.close()
    assert _wait_gone([pid], EXIT_GRACE_S + 1.0) == []


def test_a_cancelled_job_kills_its_warm_worker(sup, monkeypatch):
    monkeypatch.setattr(supervisor, "worker_main", _scripted(supervisor.worker_main))
    _run(sup, [_small(1)])
    (parked,) = sup.workers.parked
    pid = parked.process.pid
    job, worker = _dispatched(sup, _labelled(_small(2), "hang"))
    assert worker == pid
    assert sup.cancel(job.job_id).state.value == "CANCELLED"
    assert not sup.workers.parked and not sup.workers.running
    assert _wait_gone([pid], EXIT_GRACE_S + 1.0) == []
    (after,) = _run(sup, [_small(3)])
    assert after.state.value == "DONE"


def test_two_hashes_keep_a_warm_worker_each_on_two_slots(tmp_path):
    sup = Supervisor(
        JobStore(tmp_path / "svc", fsync=False),
        max_workers=2,
        run_log=str(tmp_path / "svc" / "runs.jsonl"),
    )
    before = _counts()
    try:
        jobs = []
        for seed in range(3):  # A, B, A, B, A, B: each finds its hash parked
            jobs += _run(sup, [_small(seed, NX)])
            jobs += _run(sup, [_small(seed, NX + 1)])
        groups = {worker.group for worker in sup.workers.parked}
    finally:
        sup.shutdown()
        sup.store.close()
    assert all(job.state.value == "DONE" for job in jobs)
    assert _moved(before) == {"forked": 2, "handovers": 4}
    # The run log lists the solves in job order: A, B, A, B, A, B.
    pids = [entry["pid"] for entry in read_run_log(tmp_path / "svc")]
    assert len(set(pids[0::2])) == len(set(pids[1::2])) == 1
    assert pids[0] != pids[1]
    assert groups == {job.scenario.model_hash() for job in jobs}


def test_a_new_hash_reaps_the_least_recently_used_idle_worker(sup):
    first = _run(sup, [_small(1, NX)])
    (old,) = sup.workers.parked
    pid = old.process.pid
    before = _counts()
    jobs = _run(sup, [_small(2, NX + 1), _small(3, NX)])
    assert all(job.state.value == "DONE" for job in first + jobs)
    # One slot: every change of hash reaps the parked worker first.
    assert _moved(before) == {"forked": 2, "handovers": 0}
    assert len(set(_pids(sup))) == 3
    assert _wait_gone([pid], EXIT_GRACE_S + 1.0) == []


def _pid(_item) -> int:
    return os.getpid()


def test_a_sweep_worker_parks_and_takes_the_next_attempt():
    from repro.analysis import resilient_fan_out

    outcome = resilient_fan_out(_pid, range(6), processes=2)
    pids = [pid for _, pid in outcome.results]
    # The first two items start the two workers; each later item is
    # handed to whichever worker parked first.
    assert outcome.complete and len(set(pids)) == 2


def test_health_metrics_and_top_show_the_parked_worker(tmp_path, capsys):
    from repro.cli import main

    service = ScenarioJobService(
        tmp_path / "svc",
        max_workers=2,
        fsync=False,
        poll_interval_s=0.02,
        drain_timeout_s=10.0,
    )
    service.start_background()
    try:
        client = ServiceClient(service.address)
        scenario = _small(1)
        job_id = client.submit(scenario.to_dict())["job_id"]
        assert client.wait_for(job_id, timeout=120.0)["state"] == "DONE"
        parked = {
            "busy": 0,
            "parked": 1,
            "max": 2,
            "parked_models": [scenario.model_hash()],
        }
        deadline = time.monotonic() + 10.0
        while client.health()["workers"] != parked:  # it parks after DONE
            assert time.monotonic() < deadline, client.health()["workers"]
            time.sleep(0.02)
        assert client.metrics()["workers"] == parked
        assert main(["top", "--once", "--root", str(service.root)]) == 0
        assert "workers 0/2 busy, 1 parked |" in capsys.readouterr().out
    finally:
        service.stop_background()


# ---------------------------------------------------------------------------
# no process outlives the service, with an idle warm worker present
# ---------------------------------------------------------------------------


@pytest.fixture()
def harness(tmp_path):
    h = ServiceHarness(tmp_path / "svc")
    yield h
    h.stop()


def _idle_worker(harness: ServiceHarness) -> int:
    """Start the service, finish one job and return its idle worker's pid."""
    harness.start()
    accepted = harness.submit(make_scenario("idle", "database"))
    harness.wait_done(accepted["job_id"])
    (entry,) = read_run_log(harness.root)
    assert _alive(entry["pid"])
    return entry["pid"]


def test_no_idle_worker_outlives_a_sigterm_drain(harness):
    pid = _idle_worker(harness)
    assert harness.sigterm() == 0
    assert _wait_gone([pid], EXIT_GRACE_S + 1.0) == []


def test_no_idle_worker_outlives_a_sigkill_of_repro_serve(tmp_path):
    harness = ServiceHarness(tmp_path / "svc", workers=2, solve_delay_s=3.0)
    busy = None
    try:
        pid = _idle_worker(harness)
        # A second worker, forked after the idle one and busy on another
        # hash, must not hold the idle worker's work pipe open.
        other = dataclasses.replace(
            make_scenario("busy"), solver=SolverSpec(nx=NX + 1, ny=NY)
        )
        accepted = harness.submit(other)
        busy = int(harness.wait_running(accepted["job_id"])["worker_pid"])
        assert busy != pid
        harness.kill9()
        # The idle worker waits on its work pipe, whose only writer died
        # with the service: it reads EOF and exits.
        assert _wait_gone([pid], EXIT_GRACE_S + 1.0) == []
    finally:
        harness.stop()
        if busy is not None and _alive(busy):
            os.kill(busy, signal.SIGKILL)
