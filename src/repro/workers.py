"""Worker processes: job attempts in processes of their own, one table.

The sweep engine (:func:`repro.analysis.sweep.resilient_fan_out`) and
the job service (:class:`repro.service.supervisor.Supervisor`) both run
every job attempt in a worker process, so a segfault, an OOM kill or
an ``os._exit`` loses that attempt and nothing else.  Both drive an
:class:`AttemptTable`, the one place that starts a worker with a
one-way result pipe, reads its ``{"kind": "hb"|"done"|"error"|"parked",
...}`` messages, settles each attempt once (on its outcome, as a crash
when the worker exits without one, as a timeout when it is overdue),
reaps workers, and schedules a failed job's retry after a jittered
backoff.

A worker runs the attempts of one ``group`` until it is handed none:
after an attempt that ends ``done`` it parks on a second pipe, and the
parent hands it the next attempt of its group
(:meth:`AttemptTable.dispatch`), so the state it keeps between
attempts (a thermal model) is reused, or reaps it.  A parked worker
exits on EOF from its parent, so it never outlives the parent.  A
caller decides what to run, how many workers may be alive and what an
outcome means.
"""

from __future__ import annotations

import math
import multiprocessing
import random
import signal
import time
import traceback
from dataclasses import dataclass
from multiprocessing import connection
from multiprocessing.connection import Connection
from multiprocessing.process import BaseProcess
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

EXIT_GRACE_S = 1.0
"""Seconds a worker gets to exit, after its outcome or a terminate,
before it is killed."""


def _child_main(
    target: Callable[..., None],
    conn: Connection,
    inbox: Connection,
    inherited: Sequence[Connection],
    *args,
) -> None:
    # A forked child inherits its parent's signal set-up.  Under the
    # service loop that is a no-op SIGTERM handler and the wakeup fd
    # through which the loop learns of signals.  Undo both, so
    # terminate() ends the worker and a signal sent to the worker never
    # reaches the parent.  A forked child starts with SIGTERM blocked
    # (see AttemptTable.start): one sent before this point waits, and
    # ends the worker here.
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGTERM})
    # It also inherits the parent's ends of every worker pipe, its own
    # included.  Close them: a work pipe reports EOF only once no
    # process but the parent holds its write end.
    for end in inherited:
        end.close()
    while True:
        target(conn, *args)
        try:
            conn.send({"kind": "parked"})
            args = inbox.recv()
        except (EOFError, OSError):  # reaped, or the parent is gone
            return


def error_report(exc: BaseException) -> Dict[str, str]:
    """The ``error`` outcome of an attempt that raised ``exc``, with the
    traceback rendered where it was raised, as text that pickles."""
    return {
        "kind": "error",
        "error_type": type(exc).__name__,
        "message": str(exc),
        "traceback": "".join(
            traceback.format_exception(type(exc), exc, exc.__traceback__)
        ),
    }


def jittered_delay(
    backoff_s: float,
    attempt: int,
    *,
    cap_s: float = 30.0,
    jitter: float = 0.25,
    rng: Optional[random.Random] = None,
) -> float:
    """Exponential backoff with multiplicative jitter, in seconds.

    ``backoff_s * 2**(attempt-1)`` capped at ``cap_s``, then spread by
    ``±jitter`` (a fraction of the base delay).  Jitter is what keeps a
    batch of jobs that failed *together* (a shared resource blipping)
    from retrying in lockstep and failing together again.
    """
    if backoff_s <= 0.0:
        return 0.0
    base = min(cap_s, backoff_s * (2.0 ** max(0, attempt - 1)))
    if jitter <= 0.0:
        return base
    uniform = (rng if rng is not None else random).uniform
    return max(0.0, base + uniform(-jitter * base, jitter * base))


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with jittered exponential backoff."""

    retries: int = 2
    backoff_s: float = 0.5
    cap_s: float = 30.0
    jitter: float = 0.25

    @property
    def max_attempts(self) -> int:
        return self.retries + 1

    def exhausted(self, attempts: int) -> bool:
        """True when a job that made ``attempts`` attempts gets no more."""
        return attempts >= self.max_attempts

    def delay(self, attempt: int, rng: Optional[random.Random] = None) -> float:
        """Seconds to wait before re-dispatching attempt ``attempt + 1``."""
        return jittered_delay(
            self.backoff_s,
            attempt,
            cap_s=self.cap_s,
            jitter=self.jitter,
            rng=rng,
        )


@dataclass
class Attempt:
    """Parent-side record of one worker attempt."""

    key: Hashable
    process: BaseProcess
    conn: Connection
    # time.monotonic() at the start: a deadline counts from here, not
    # from the time the job waited in a queue.
    started: float
    # The wall-clock twins are for records other processes read: a
    # span's start, the moment a killed worker was last known alive.
    started_wall: float
    last_heartbeat: float
    last_heartbeat_wall: float
    outcome: Optional[dict] = None  # the one outcome, once settled
    # Write end of the worker's work pipe; None once the worker may take
    # no further attempt.
    inbox: Optional[Connection] = None
    group: Hashable = None  # the attempts the worker may take
    parked: bool = False  # the worker reported that it waits for work
    handed_over: bool = False  # a parked worker took this attempt


def _ignore(_value: float) -> None:
    """Default event hook: without a loop, the caller polls."""


class AttemptTable:
    """The running worker attempts of one executor, keyed by job.

    ``timeout_s`` is the deadline of each attempt, and
    ``heartbeat_timeout_s`` the longest silence allowed of workers that
    send heartbeats (``None`` disables either).  The table needs no
    event loop: :meth:`wait` blocks until the next pipe message or due
    time.  A loop sets the hooks instead: ``watch(fd)`` and
    ``unwatch(fd)`` receive each worker's result-pipe descriptor at
    start and at reap, ``wake_at(t)`` the ``time.monotonic()`` instant
    a backoff ends; on each it calls :meth:`poll`.  ``running`` holds
    the attempts in flight by key, ``parked`` the workers that wait for
    an attempt of their group, least recently used first.
    Single-threaded.
    """

    def __init__(
        self,
        *,
        retry: Optional[RetryPolicy] = None,
        timeout_s: Optional[float] = None,
        heartbeat_timeout_s: Optional[float] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.retry = retry if retry is not None else RetryPolicy()
        self.timeout_s = timeout_s
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.rng = rng
        self.running: Dict[Hashable, Attempt] = {}
        self.parked: List[Attempt] = []
        self.not_before: Dict[Hashable, float] = {}
        self.watch: Callable[[int], None] = _ignore
        self.unwatch: Callable[[int], None] = _ignore
        self.wake_at: Callable[[float], None] = _ignore

    def ready(self, key: Hashable) -> bool:
        """True when ``key`` has no worker and no backoff left to wait."""
        return (
            key not in self.running
            and self.not_before.get(key, 0.0) <= time.monotonic()
        )

    def _ends(self) -> List[Connection]:
        """The parent's end of every worker pipe."""
        workers = [*self.running.values(), *self.parked]
        return [end for w in workers for end in (w.conn, w.inbox) if end]

    def dispatch(
        self,
        key: Hashable,
        target: Callable[..., None],
        args: Sequence[object],
        *,
        group: Hashable,
        slots: int,
        daemon: bool,
    ) -> Attempt:
        """Run ``key``'s attempt in a parked worker of ``group``, else in
        a new one running ``target`` (:meth:`start`), after reaping the
        least recently used parked worker when all ``slots`` are taken.
        A parked worker found dead is reaped and costs the attempt
        nothing."""
        for worker in [w for w in reversed(self.parked) if w.group == group]:
            attempt = self.hand_over(worker, key, args)
            if attempt is not None:
                return attempt
        if self.parked and len(self.running) + len(self.parked) >= slots:
            self.reap(self.parked[0])
        return self.start(key, target, args, daemon=daemon, group=group)

    def start(
        self,
        key: Hashable,
        target: Callable[..., None],
        args: Sequence[object],
        *,
        daemon: bool,
        group: Hashable = None,
    ) -> Attempt:
        """Run ``target(conn, *args)`` in a new worker for ``key``.

        ``conn`` is the write end of a one-way pipe.  The parent keeps
        no copy of it, so the read end reports EOF once the worker has
        exited, with or without sending anything.  The process uses the
        default start method: under fork, ``target`` and ``args`` are
        inherited, not pickled.  After a ``done`` attempt the worker
        parks instead of exiting (see :meth:`hand_over`).
        """
        context = multiprocessing.get_context()
        fork = context.get_start_method() == "fork"
        reader, writer = context.Pipe(duplex=False)
        work, inbox = context.Pipe(duplex=False)
        inherited = [reader, inbox, *self._ends()]
        if not fork:
            inherited = []  # nothing is inherited, and a pickled copy would be
        process = context.Process(
            target=_child_main,
            args=(target, writer, work, inherited, *args),
            daemon=daemon,
        )
        # A forked child runs the parent's SIGTERM handler until
        # _child_main resets it, so a terminate() landing first would be
        # swallowed.  The child inherits this mask and holds the signal
        # until the reset.  Exec resets the handlers under spawn.
        mask = None
        if fork:
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM})
        try:
            process.start()
        finally:
            if mask is not None:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            writer.close()
            work.close()
        now, wall = time.monotonic(), time.time()
        attempt = self.running[key] = Attempt(
            key, process, reader, now, wall, now, wall, inbox=inbox, group=group
        )
        self.not_before.pop(key, None)
        self.watch(reader.fileno())
        return attempt

    def hand_over(
        self, worker: Attempt, key: Hashable, args: Sequence[object]
    ) -> Optional[Attempt]:
        """Run ``key``'s attempt in the parked ``worker``: its target,
        called with ``args``, which are pickled through the work pipe.

        Returns the attempt, whose deadline counts from now; ``None``
        when the worker has died while parked, and is reaped.
        """
        try:
            if not worker.process.is_alive():
                raise BrokenPipeError("the parked worker has exited")
            worker.inbox.send(tuple(args))
        except (OSError, ValueError):
            self.reap(worker)
            return None
        self.parked.remove(worker)
        now, wall = time.monotonic(), time.time()
        attempt = self.running[key] = Attempt(
            key,
            worker.process,
            worker.conn,
            now,
            wall,
            now,
            wall,
            inbox=worker.inbox,
            group=worker.group,
            handed_over=True,
        )
        self.not_before.pop(key, None)
        return attempt

    def reap(self, attempt: Attempt, *, terminate: bool = False) -> Optional[int]:
        """Take ``attempt``, running or parked, off the table and join its
        worker.

        The worker's work pipe closes, so a parked worker exits on the
        EOF.  With ``terminate`` the worker is first asked to stop
        (SIGTERM).  A worker still alive after :data:`EXIT_GRACE_S` is
        killed.  The attempt leaves the table first, so a worker that
        has exited holds no slot.  Returns the exit code.
        """
        if self.running.get(attempt.key) is attempt:
            del self.running[attempt.key]
        else:
            self.parked.remove(attempt)
        self.unwatch(attempt.conn.fileno())
        attempt.conn.close()
        self._close_inbox(attempt)
        process = attempt.process
        if terminate:
            try:
                process.terminate()
            except (ValueError, OSError):
                pass
        process.join(timeout=EXIT_GRACE_S)
        if process.is_alive():
            process.kill()
            process.join(timeout=EXIT_GRACE_S)
        exitcode = process.exitcode
        try:
            process.close()
        except ValueError:  # still running after the kill
            pass
        return exitcode

    def _close_inbox(self, attempt: Attempt) -> None:
        """Hand ``attempt``'s worker no further attempt."""
        if attempt.inbox is not None:
            attempt.inbox.close()
            attempt.inbox = None

    def cancel(self, key: Hashable) -> None:
        """Kill ``key``'s worker, if it has one, and drop its backoff."""
        if key in self.running:
            self.reap(self.running[key], terminate=True)
        self.not_before.pop(key, None)

    def close(self) -> None:
        """Terminate every running worker and reap every worker."""
        for attempt in list(self.running.values()):
            self.reap(attempt, terminate=True)
        for worker in list(self.parked):
            self.reap(worker)

    def _read(self, attempt: Attempt) -> bool:
        """Take every message waiting on ``attempt``'s pipe; True at EOF."""
        while True:
            try:
                if not attempt.conn.poll(0):
                    return False
                message = attempt.conn.recv()
            except (EOFError, OSError):
                return True
            except Exception as exc:  # the outcome did not unpickle here
                message = error_report(exc)
            # A heartbeat, or the outcome, from which the exit grace counts.
            attempt.last_heartbeat = time.monotonic()
            kind = message.get("kind")
            if kind == "hb":
                attempt.last_heartbeat_wall = float(message.get("t", time.time()))
            elif kind == "parked":
                attempt.parked = True
            elif attempt.outcome is None:
                attempt.outcome = message
                attempt.last_heartbeat_wall = time.time()
                if kind != "done":  # a worker that failed takes no more
                    self._close_inbox(attempt)

    def _due(self, attempt: Attempt) -> Tuple[float, str]:
        """When ``attempt`` falls overdue (``time.monotonic()``), and why."""
        if attempt.outcome is not None:  # reported: the exit grace
            return attempt.last_heartbeat + EXIT_GRACE_S, ""
        dues = [(math.inf, "")]
        if self.timeout_s is not None:
            reason = f"job exceeded the {self.timeout_s} s deadline"
            dues.append((attempt.started + self.timeout_s, reason))
        if self.heartbeat_timeout_s is not None:
            reason = f"no heartbeat for {self.heartbeat_timeout_s} s (worker hung)"
            dues.append((attempt.last_heartbeat + self.heartbeat_timeout_s, reason))
        return min(dues)

    def poll(self) -> Iterator[Attempt]:
        """Read every result pipe; yield each attempt as it settles.

        An attempt settles once, with ``outcome`` set: to the worker's
        ``done`` or ``error`` message, to ``{"kind": "crash",
        "exitcode": ...}`` when the worker exits without one, or to
        ``{"kind": "timeout"}`` when it is overdue and killed; these
        two carry a ``message`` and the ``elapsed_s`` since the start.
        A worker that sent its outcome is joined after the caller has
        handled it, once its pipe reports EOF, or parked once it reports
        that it waits for work.  A parked worker that exits is reaped
        and settles nothing.
        """
        now = time.monotonic()
        for worker in list(self.parked):
            if self._read(worker) or not worker.process.is_alive():
                self.reap(worker)
        for attempt in list(self.running.values()):
            reported = attempt.outcome is not None
            # Looked at before the read: a worker that has exited has
            # also written everything it sent.
            alive = attempt.process.is_alive()
            exited = self._read(attempt) or not alive
            due, reason = self._due(attempt)
            if attempt.outcome is not None:
                if not reported:
                    yield attempt
                    if self.running.get(attempt.key) is not attempt:
                        continue  # the caller has reaped it
                if exited:
                    self.reap(attempt)
                elif attempt.parked and attempt.inbox is not None:
                    del self.running[attempt.key]
                    self.parked.append(attempt)
                elif now >= due:
                    self.reap(attempt, terminate=True)
                continue
            if exited:
                code = self.reap(attempt)
                attempt.outcome = {
                    "kind": "crash",
                    "exitcode": code,
                    "message": "the worker process died while running "
                    f"this job (exit code {code})",
                }
            elif now >= due:
                self.reap(attempt, terminate=True)
                attempt.outcome = {
                    "kind": "timeout",
                    "error_type": "TimeoutError",
                    "message": reason,
                }
            else:
                continue
            attempt.outcome["elapsed_s"] = now - attempt.started
            yield attempt

    def wait(self, timeout: Optional[float] = None) -> None:
        """Block until a result pipe is ready, an attempt falls overdue,
        a backoff ends or ``timeout`` seconds pass."""
        now = time.monotonic()
        wakes = [t for t in self.not_before.values() if t > now]
        wakes += [self._due(attempt)[0] for attempt in self.running.values()]
        wake = min(wakes, default=math.inf)
        if timeout is not None:
            wake = min(wake, now + timeout)
        if self.running or wake < math.inf:
            connection.wait(
                [attempt.conn for attempt in (*self.running.values(), *self.parked)],
                None if wake == math.inf else max(0.0, wake - now),
            )

    def retry_later(self, key: Hashable, attempts: int) -> bool:
        """Schedule another attempt of ``key``, a job that has made
        ``attempts`` attempts, after its backoff; False, scheduling
        nothing, when the policy allows no more."""
        if self.retry.exhausted(attempts):
            return False
        not_before = time.monotonic() + self.retry.delay(attempts, self.rng)
        self.not_before[key] = not_before
        self.wake_at(not_before)
        return True
