"""The attempt table both executors drive (``repro.workers``).

The sweep and service suites run it end to end; these tests pin the
parts they do not reach: an outcome that does not unpickle, the stale
heartbeat check, the order of reaping, the retry schedule, and where
:meth:`AttemptTable.dispatch` runs an attempt.
"""

from __future__ import annotations

import multiprocessing
import os
import time

from repro.workers import AttemptTable, RetryPolicy


def _explode():
    raise ValueError("refused to unpickle")


class _Bomb:
    """Pickles anywhere, fails to unpickle in the parent."""

    def __reduce__(self):
        return (_explode, ())


def _send_bomb(conn) -> None:
    conn.send({"kind": "done", "value": _Bomb()})
    conn.close()


def _silent(conn) -> None:
    time.sleep(30.0)


def _done(conn) -> None:
    conn.send({"kind": "done", "value": os.getpid()})


def _settle_one(table: AttemptTable, timeout: float = 10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        table.wait(deadline - time.monotonic())
        settled = list(table.poll())
        if settled:
            return settled
    raise AssertionError("no attempt settled")


def test_outcome_that_does_not_unpickle_settles_as_an_error():
    table = AttemptTable()
    table.start("bomb", _send_bomb, (), daemon=False)
    try:
        (attempt,) = _settle_one(table)
        assert attempt.outcome["kind"] == "error"
        assert attempt.outcome["error_type"] == "ValueError"
        assert "refused to unpickle" in attempt.outcome["message"]
    finally:
        table.close()
    assert multiprocessing.active_children() == []


def test_silent_worker_is_killed_on_its_heartbeat_timeout():
    table = AttemptTable(heartbeat_timeout_s=0.3)
    table.start("silent", _silent, (), daemon=False)
    try:
        (attempt,) = _settle_one(table)
        assert attempt.outcome["kind"] == "timeout"
        assert attempt.outcome["message"] == "no heartbeat for 0.3 s (worker hung)"
        assert attempt.outcome["elapsed_s"] >= 0.3
        assert table.running == {}
    finally:
        table.close()
    assert multiprocessing.active_children() == []


def test_an_attempt_leaves_the_table_before_its_worker_is_joined():
    table = AttemptTable()
    seen = []
    attempt = table.start("slow", _silent, (), daemon=False)
    table.unwatch = lambda _fd: seen.append(
        ("slow" in table.running, attempt.process.is_alive())
    )
    table.cancel("slow")
    # Off the table while its worker still ran: a worker that has
    # exited never holds a slot.
    assert seen == [(False, True)]
    assert multiprocessing.active_children() == []


def test_retry_schedule_waits_out_the_backoff_and_stops_when_exhausted():
    table = AttemptTable(retry=RetryPolicy(retries=1, backoff_s=0.2, jitter=0.0))
    wakes = []
    table.wake_at = wakes.append
    assert table.ready("job")
    assert table.retry_later("job", attempts=1)
    assert not table.ready("job")
    assert wakes == [table.not_before["job"]]
    table.wait()  # nothing runs: sleeps until the backoff ends
    assert table.ready("job")
    assert not table.retry_later("job", attempts=2)


def _park(table: AttemptTable, timeout: float = 10.0) -> None:
    """Poll until every running attempt has settled and parked."""
    deadline = time.monotonic() + timeout
    while table.running:
        assert time.monotonic() < deadline, "no worker parked"
        table.wait(deadline - time.monotonic())
        for attempt in table.poll():
            assert attempt.outcome["kind"] == "done"


def test_dispatch_hands_over_in_the_group_and_reaps_the_least_recently_used():
    table = AttemptTable()
    try:
        first = table.dispatch("a", _done, (), group="x", slots=2, daemon=False)
        _park(table)
        again = table.dispatch("b", _done, (), group="x", slots=2, daemon=False)
        assert again.handed_over and again.process is first.process
        _park(table)
        # A free slot: a job of another group starts a second worker.
        other = table.dispatch("c", _done, (), group="y", slots=2, daemon=False)
        assert not other.handed_over and other.process is not first.process
        _park(table)
        assert [worker.group for worker in table.parked] == ["x", "y"]
        # Every slot holds a parked worker: the least recently used goes.
        table.dispatch("d", _done, (), group="z", slots=2, daemon=False)
        assert [worker.group for worker in table.parked] == ["y"]
        _park(table)
        assert [worker.group for worker in table.parked] == ["y", "z"]
    finally:
        table.close()
    assert multiprocessing.active_children() == []
