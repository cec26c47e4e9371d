"""Event-driven supervision and worker-process hygiene.

The service loop wakes on a submit, on a worker's result pipe and at
the end of a retry's backoff; the ``poll_interval_s`` tick only paces
what a clock alone can see (DESIGN.md §13).  The event-path tests set
that tick to 30 s, so a job that finishes within seconds proves the
event path carried it.  The hygiene tests check that no worker process
outlives the service, in-process and as a ``repro serve`` subprocess.
"""

from __future__ import annotations

import multiprocessing
import os
import time

import pytest

from repro.service import (
    JobState,
    JobStore,
    RetryPolicy,
    ScenarioJobService,
    ServiceClient,
    Supervisor,
    supervisor,
)
from tests.chaos import ServiceHarness, make_scenario, read_run_log

SLOW_TICK_S = 30.0
"""A tick far longer than any wait below: only events can drive them."""


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def _wait_gone(pids, timeout: float = 10.0) -> list:
    """Pids still alive after ``timeout`` seconds (a reaped pid is gone)."""
    deadline = time.monotonic() + timeout
    alive = [pid for pid in pids if _pid_alive(pid)]
    while alive and time.monotonic() < deadline:
        time.sleep(0.05)
        alive = [pid for pid in alive if _pid_alive(pid)]
    return alive


def _service(root, **kwargs) -> ScenarioJobService:
    kwargs.setdefault("retry", RetryPolicy(retries=1, backoff_s=0.01))
    kwargs.setdefault("poll_interval_s", SLOW_TICK_S)
    return ScenarioJobService(
        root, max_workers=1, fsync=False, drain_timeout_s=10.0, **kwargs
    )


def test_supervisor_runs_on_tick_alone_without_a_loop(tmp_path):
    store = JobStore(tmp_path / "svc", fsync=False)
    sup = Supervisor(store, max_workers=1, run_log=str(tmp_path / "runs.jsonl"))
    job, _ = store.submit(make_scenario("ticked"))
    deadline = time.monotonic() + 60.0
    while sup.busy or not store.jobs[job.job_id].state.terminal:
        assert time.monotonic() < deadline, "tick-driven job never finished"
        sup.tick()
        time.sleep(0.01)
    assert store.jobs[job.job_id].state is JobState.DONE
    assert store.jobs[job.job_id].attempts == 1
    # The worker is warm: parked for the next job of its model hash
    # until the supervisor shuts down.
    (parked,) = sup.workers.parked
    assert multiprocessing.active_children() == [parked.process]
    sup.shutdown()
    assert multiprocessing.active_children() == []
    store.close()


def test_submit_dispatches_and_finishes_without_the_tick(tmp_path):
    service = _service(tmp_path / "svc")
    service.start_background()
    try:
        client = ServiceClient(service.address)
        start = time.monotonic()
        accepted = client.submit(make_scenario("event").to_dict())
        job = client.wait_for(accepted["job_id"], timeout=10.0, poll_s=0.01)
        assert job["state"] == "DONE"
        assert job["attempts"] == 1
        assert time.monotonic() - start < 10.0
    finally:
        service.stop_background()


def _failing_worker(conn, job_id, *_args, **_kwargs) -> None:
    conn.send(
        {"kind": "error", "error_type": "RuntimeError", "message": job_id}
    )
    conn.close()


def test_retry_is_redispatched_when_its_backoff_ends(tmp_path, monkeypatch):
    # The fork start method carries the patched entry into the worker.
    monkeypatch.setattr(supervisor, "worker_main", _failing_worker)
    service = _service(
        tmp_path / "svc", retry=RetryPolicy(retries=2, backoff_s=0.05)
    )
    service.start_background()
    try:
        client = ServiceClient(service.address)
        accepted = client.submit(make_scenario("retry").to_dict())
        job = client.wait_for(accepted["job_id"], timeout=10.0, poll_s=0.01)
        assert job["state"] == "FAILED"
        assert job["attempts"] == 3
        assert "RuntimeError" in job["error"]
    finally:
        service.stop_background()


def _lingering_worker(conn, job_id, *_args, **_kwargs) -> None:
    conn.send({"kind": "done", "cached": False, "wall_s": 0.0})
    time.sleep(60.0)  # reported, but never exits on its own


def test_outcome_is_journaled_before_the_worker_exits(tmp_path, monkeypatch):
    monkeypatch.setattr(supervisor, "worker_main", _lingering_worker)
    service = _service(tmp_path / "svc", poll_interval_s=0.02)
    service.start_background()
    try:
        client = ServiceClient(service.address)
        accepted = client.submit(make_scenario("linger").to_dict())
        job = client.wait_for(accepted["job_id"], timeout=10.0, poll_s=0.01)
        assert job["state"] == "DONE"
        # DONE was journaled on the message, while the worker lives on;
        # past its exit grace the supervisor terminates it.
        assert len(multiprocessing.active_children()) == 1
        deadline = time.monotonic() + supervisor.EXIT_GRACE_S + 5.0
        while multiprocessing.active_children():
            assert time.monotonic() < deadline, "lingering worker not killed"
            time.sleep(0.05)
        assert service.supervisor.busy == 0
    finally:
        service.stop_background()


def test_no_worker_outlives_stop_background(tmp_path):
    service = _service(tmp_path / "svc")
    service.start_background()
    try:
        client = ServiceClient(service.address)
        for workload in ("database", "web"):
            accepted = client.submit(make_scenario(workload, workload).to_dict())
            client.wait_for(accepted["job_id"], timeout=60.0)
    finally:
        service.stop_background()
    pids = [entry["pid"] for entry in read_run_log(service.root)]
    assert len(pids) == 2
    assert multiprocessing.active_children() == []
    assert _wait_gone(pids, timeout=0.0) == []


@pytest.fixture()
def harness(tmp_path):
    h = ServiceHarness(tmp_path / "svc", solve_delay_s=1.0, drain_timeout_s=0.2)
    yield h
    h.stop()


def test_no_worker_outlives_sigterm_of_repro_serve(harness):
    harness.start()
    finished = harness.submit(make_scenario("finished", "database"))
    harness.wait_done(finished["job_id"])
    # The drain window is shorter than the solve delay: this worker is
    # still running at the SIGTERM and the drain must kill it.
    inflight = harness.submit(make_scenario("inflight", "web"))
    inflight_pid = int(harness.wait_running(inflight["job_id"])["worker_pid"])
    assert harness.sigterm() == 0
    pids = [entry["pid"] for entry in read_run_log(harness.root)]
    assert len(pids) == 1
    assert _wait_gone(pids + [inflight_pid]) == []


def test_cancelling_a_running_job_leaves_the_service_up(harness):
    harness.start()
    accepted = harness.submit(make_scenario("cancelled"))
    pid = int(harness.wait_running(accepted["job_id"])["worker_pid"])
    cancelled = harness.client.cancel(accepted["job_id"])["job"]
    assert cancelled["state"] == "CANCELLED"
    # The worker's SIGTERM ends the worker, not the service.
    assert _wait_gone([pid]) == []
    time.sleep(0.2)
    assert harness.process.poll() is None
    assert harness.client.health()["status"] == "ok"
    assert harness.sigterm() == 0
