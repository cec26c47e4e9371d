"""Worker processes: one job per process, one outcome over a one-way pipe.

The sweep engine (:func:`repro.analysis.sweep.resilient_fan_out`) and
the job service (:class:`repro.service.supervisor.Supervisor`) both run
every job in a process of its own, so a segfault, an OOM kill or an
``os._exit`` loses that job and nothing else.  This module is the
lifecycle they share (start a child with a result pipe, undo the
signal set-up the child inherits, reap it within a grace period) plus
the retry delay both apply between attempts.  Scheduling (how many
workers, deadlines, retries) stays with the callers.
"""

from __future__ import annotations

import multiprocessing
import random
import signal
import traceback
from multiprocessing.connection import Connection
from multiprocessing.process import BaseProcess
from typing import Callable, Optional, Sequence, Tuple

EXIT_GRACE_S = 1.0
"""Seconds a worker gets to exit, after its outcome or a terminate,
before it is killed."""


def _child_main(target: Callable[..., None], conn: Connection, *args) -> None:
    # A forked child inherits its parent's signal set-up.  Under the
    # service loop that is a no-op SIGTERM handler and the wakeup fd
    # through which the loop learns of signals.  Undo both, so
    # terminate() ends the worker and a signal sent to the worker never
    # reaches the parent.
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    target(conn, *args)


def start_worker(
    target: Callable[..., None], args: Sequence[object], *, daemon: bool
) -> Tuple[BaseProcess, Connection]:
    """Run ``target(conn, *args)`` in a new process.

    ``conn`` is the write end of a one-way pipe; the returned
    connection is its read end.  The parent keeps no copy of the write
    end, so the read end reports EOF once the worker has exited, with
    or without sending anything.  The process uses the default start
    method: under fork, ``target`` and ``args`` are inherited, not
    pickled.
    """
    context = multiprocessing.get_context()
    reader, writer = context.Pipe(duplex=False)
    process = context.Process(
        target=_child_main, args=(target, writer, *args), daemon=daemon
    )
    try:
        process.start()
    finally:
        writer.close()
    return process, reader


def reap_worker(
    process: BaseProcess, conn: Connection, *, terminate: bool = False
) -> Optional[int]:
    """Close the result pipe and join the worker; returns its exit code.

    With ``terminate`` the worker is first asked to stop (SIGTERM).  A
    worker still alive after :data:`EXIT_GRACE_S` is killed.
    """
    try:
        conn.close()
    except OSError:
        pass
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


def render_traceback(exc: BaseException) -> str:
    """The formatted traceback of ``exc``, as text that survives pickling."""
    return "".join(
        traceback.format_exception(type(exc), exc, exc.__traceback__)
    )


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
    from retrying in lockstep and failing together again; both the
    sweep retries and the service supervisor use this one helper.
    """
    if backoff_s <= 0.0:
        return 0.0
    base = min(cap_s, backoff_s * (2.0 ** max(0, attempt - 1)))
    if jitter <= 0.0:
        return base
    uniform = (rng if rng is not None else random).uniform
    return max(0.0, base + uniform(-jitter * base, jitter * base))
