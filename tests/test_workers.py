"""The sweep engine's executor: job attempts in worker processes.

Each attempt runs in a worker process started and reaped by
``repro.workers``.  A worker parks after a job that succeeded and takes
the next one, while a job that fails retires its worker.  So a crash or
a timeout fails that job alone, a deadline counts from the job's own
start, and no worker outlives the sweep.  Every job appends one
character to a marker file per run, so the tests can count how often
each job ran.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import socket
import threading
import time
from pathlib import Path

import pytest

from repro.analysis import fan_out, resilient_fan_out
from repro.workers import EXIT_GRACE_S, AttemptTable


def _job(arg):
    directory, name, action = arg
    with open(Path(directory) / f"ran-{name}", "a") as marker:
        marker.write(".")
    if action == "hang":
        time.sleep(60.0)
    elif action == "exit":
        os._exit(13)
    elif action == "raise":
        raise ValueError(f"job {name} failed")
    else:
        time.sleep(action)
    return name


def _runs(directory: Path, names) -> dict:
    return {name: len((directory / f"ran-{name}").read_text()) for name in names}


def test_deadline_counts_from_the_job_start_not_the_queue(tmp_path):
    jobs = [(str(tmp_path), name, 0.8) for name in "abcd"]
    outcome = resilient_fan_out(
        _job, jobs, processes=2, timeout_s=1.0, retries=0
    )
    assert outcome.complete
    assert [value for _, value in outcome.results] == list("abcd")


def test_timeout_fails_only_the_hung_job_and_each_job_runs_once(tmp_path):
    actions = {"quick": 0.5, "hung": "hang", "slow": 1.2}
    jobs = [(str(tmp_path), name, action) for name, action in actions.items()]
    outcome = resilient_fan_out(
        _job, jobs, processes=2, timeout_s=1.5, retries=0
    )
    assert sorted(value for _, value in outcome.results) == ["quick", "slow"]
    (failure,) = outcome.failures
    assert failure.key == 1
    assert failure.phase == "timeout"
    assert failure.elapsed_s >= 1.5
    assert _runs(tmp_path, actions) == {"quick": 1, "hung": 1, "slow": 1}
    assert multiprocessing.active_children() == []


def test_crash_retries_only_the_crashed_job(tmp_path):
    actions = {"a": 0.5, "b": 0.2, "crash": "exit", "d": 0.5}
    jobs = [(str(tmp_path), name, action) for name, action in actions.items()]
    outcome = resilient_fan_out(_job, jobs, processes=2, retries=1)
    assert sorted(value for _, value in outcome.results) == ["a", "b", "d"]
    (failure,) = outcome.failures
    assert failure.phase == "worker-crash"
    assert failure.attempts == 2
    assert "exit code 13" in failure.message
    assert _runs(tmp_path, actions) == {"a": 1, "b": 1, "crash": 2, "d": 1}


def _pid_job(arg):
    directory, name, _action = arg
    (Path(directory) / f"pid-{name}").write_text(str(os.getpid()))
    _job(arg)
    return os.getpid()


@pytest.mark.parametrize("action", ["raise", "exit", "hang"])
def test_a_failed_job_retires_its_worker(tmp_path, action):
    names = ["a", "bad", "c", "d", "e"]
    jobs = [
        (str(tmp_path), name, action if name == "bad" else 0.0) for name in names
    ]
    outcome = resilient_fan_out(
        _pid_job, jobs, processes=2, timeout_s=1.0, retries=0
    )
    (failure,) = outcome.failures
    assert failure.key == 1
    # The jobs after it ran, but none in the worker the bad job had.
    bad = int((tmp_path / "pid-bad").read_text())
    later = [pid for key, pid in outcome.results if key > 1]
    assert len(later) == 3 and bad not in later
    assert multiprocessing.active_children() == []


def test_no_worker_outlives_an_interrupted_sweep(tmp_path):
    jobs = [(str(tmp_path), name, 30.0) for name in "ab"]
    interrupt = threading.Timer(
        0.5,
        signal.pthread_kill,
        (threading.main_thread().ident, signal.SIGINT),
    )
    interrupt.start()
    try:
        with pytest.raises(KeyboardInterrupt):
            resilient_fan_out(_job, jobs, processes=2)
    finally:
        interrupt.cancel()
    assert multiprocessing.active_children() == []


def test_fan_out_raises_the_first_failure(tmp_path):
    with pytest.raises(ValueError, match="job bad failed"):
        fan_out(_job, [(str(tmp_path), "bad", "raise")], processes=2)
    with pytest.raises(RuntimeError, match="exit code 13"):
        fan_out(_job, [(str(tmp_path), "crash", "exit")], processes=2)
    assert multiprocessing.active_children() == []


def _sleep(_conn):
    time.sleep(30.0)


@pytest.mark.parametrize("start_method", ["fork"], indirect=True)
def test_a_terminate_right_after_the_fork_ends_the_worker(start_method):
    # The parent holds what the service loop holds: a no-op SIGTERM
    # handler and a wakeup fd.  A forked worker inherits both until it
    # resets them, so a terminate() landing first must wait for the
    # reset, not be swallowed and written to the parent's fd.
    reader, writer = socket.socketpair()
    reader.setblocking(False)
    writer.setblocking(False)
    table = AttemptTable()
    previous = signal.signal(signal.SIGTERM, lambda *_: None)
    wakeup = signal.set_wakeup_fd(writer.fileno())
    try:
        attempts = []
        for key in range(20):
            attempts.append(table.start(key, _sleep, (), daemon=True))
            attempts[-1].process.terminate()
        deadline = time.monotonic() + EXIT_GRACE_S
        for attempt in attempts:
            attempt.process.join(max(0.0, deadline - time.monotonic()))
        codes = [attempt.process.exitcode for attempt in attempts]
    finally:
        signal.set_wakeup_fd(wakeup)
        signal.signal(signal.SIGTERM, previous)
        table.close()
    try:
        leaked = reader.recv(64)
    except BlockingIOError:
        leaked = b""
    reader.close()
    writer.close()
    assert codes == [-signal.SIGTERM] * 20
    assert leaked == b""
    assert multiprocessing.active_children() == []
