"""Worker supervision: heartbeats, retries, poison-job quarantine.

The supervisor owns the only part of the service that can die
unexpectedly — the worker processes actually solving scenarios.  Each
job runs in its own ``multiprocessing.Process`` (full crash isolation:
a segfault, OOM kill or ``os._exit`` takes down one job, not the
pool), reporting through a one-way pipe:

* ``hb`` heartbeats every few hundred milliseconds from a worker-side
  thread — a worker whose heartbeat goes stale is hung, not slow, and
  is killed and retried;
* a final ``done`` / ``error`` message carrying the outcome.

Failure policy, in order of escalation:

* an **exception** in the solve is retried up to the policy's bounded
  attempts with exponential backoff *plus jitter* (simultaneous
  failures must not retry in lockstep — the same fix
  :func:`repro.analysis.sweep.jittered_delay` applies to sweep
  retries), then marked ``FAILED``;
* a **worker death** additionally feeds the per-scenario-class
  :class:`CircuitBreaker`; a spec that kills workers repeatedly is
  quarantined (``QUARANTINED``) instead of crash-looping the pool, and
  while a class's breaker is open its other jobs stay queued until the
  cooldown's half-open probe proves the class healthy again;
* a **hang** (stale heartbeat or per-job deadline) is killed and
  treated as a retryable failure.

``drain()`` implements graceful SIGTERM shutdown: stop dispatching,
let in-flight jobs finish (bounded), re-enqueue whatever could not —
the WAL already holds every pending job, so "checkpoint the rest" is
free.

The supervisor needs no event loop: :meth:`Supervisor.tick` called on
a clock finds every outcome by polling.  A loop that wants to react to
events instead sets the hooks ``watch``/``unwatch`` (a worker's result
pipe, at dispatch and at reap) and ``wake_at`` (a retry's backoff end)
and runs :meth:`Supervisor.poll` and :meth:`Supervisor.dispatch_pending`
whenever one fires (DESIGN.md section 13).
"""

from __future__ import annotations

import multiprocessing
import os
import random
import signal
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..analysis.sweep import jittered_delay
from ..obs import capture_telemetry, is_obs_payload
from ..obs.live import (
    PerfWatchdog,
    SamplingProfiler,
    TraceContext,
    annotate_records,
    profile_requested,
    set_current_trace,
)
from ..obs.metrics import get_registry
from ..obs.trace import get_tracer
from ..scenario.cache import ResultCache
from ..scenario.runner import Runner
from ..scenario.spec import Scenario
from .jobs import Job, JobState, JobStore

HEARTBEAT_INTERVAL_S = 0.2
"""Worker-side heartbeat period."""

TEST_DELAY_ENV = "REPRO_SERVICE_TEST_DELAY_S"
"""Chaos hook: seconds a worker sleeps before solving (see tests/chaos.py)."""

EXIT_GRACE_S = 1.0
"""Seconds a worker gets to exit, after its outcome or a terminate,
before it is killed."""


def scenario_class(scenario: Scenario) -> str:
    """Circuit-breaker key: specs that exercise the same machinery.

    Poison jobs usually poison their whole family (a policy/backend
    combination that segfaults, a tier count that OOMs), so breaker
    state is tracked per class, not per content hash.
    """
    return (
        f"{scenario.policy.name}/{scenario.solver.backend}/"
        f"{scenario.stack.tiers}t-{scenario.stack.cooling}"
    )


def _append_run_log(path: str, payload: dict) -> None:
    """One JSON line per completed solve, O_APPEND-atomic.

    The chaos suite counts these lines to assert "no job run twice to
    completion" and "resubmission performs zero additional solves".
    """
    import json

    line = json.dumps(payload, sort_keys=True) + "\n"
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        os.write(fd, line.encode("utf-8"))
    finally:
        os.close(fd)


def worker_main(
    conn,
    job_id: str,
    scenario_dict: dict,
    cache_dir: str,
    run_log: Optional[str] = None,
    trace_id: Optional[str] = None,
    profile_path: Optional[str] = None,
) -> None:
    """Process-worker entry: solve one scenario, report, exit.

    Runs in a child process.  The result lands in the shared
    :class:`ResultCache` (and its run manifest next to it) *before*
    the ``done`` message is sent, so a crash after the cache write at
    worst reruns a job whose rerun is a pure cache hit.

    ``trace_id`` is the propagated client trace context — stamped on
    heartbeats (the supervisor's only live view into the worker) and
    installed as the process-wide current trace.  ``profile_path``
    turns on the sampling profiler for the solve and writes the
    collapsed stacks there; hot frames ride back in the ``done``
    message.
    """
    # A forked worker inherits the service loop's signal set-up: a
    # no-op SIGTERM handler, and the wakeup fd through which that loop
    # learns of signals.  Undo both, so terminate() ends the worker and
    # a signal sent to the worker never stops the service.
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    send_lock = threading.Lock()
    stop = threading.Event()
    if trace_id:
        set_current_trace(TraceContext(trace_id))

    def send(message: dict) -> None:
        with send_lock:
            try:
                conn.send(message)
            except (BrokenPipeError, OSError):
                pass

    def heartbeat() -> None:
        beat: Dict[str, object] = {"kind": "hb", "t": 0.0}
        if trace_id:
            beat["trace_id"] = trace_id
        while not stop.wait(HEARTBEAT_INTERVAL_S):
            beat["t"] = time.time()
            send(dict(beat))

    ticker = threading.Thread(target=heartbeat, daemon=True)
    ticker.start()
    try:
        delay = float(os.environ.get(TEST_DELAY_ENV, "0") or "0")
        if delay > 0:
            time.sleep(delay)
        scenario = Scenario.from_dict(scenario_dict)
        cache = ResultCache(cache_dir)
        profiler: Optional[SamplingProfiler] = None
        if (profile_path or profile_requested()) and SamplingProfiler.available():
            profiler = SamplingProfiler()
        telemetry: Dict[str, object] = {}
        with capture_telemetry(telemetry):
            runner = Runner(scenario, cache=cache)
            if profiler is not None:
                with profiler:
                    runner.run()
            else:
                runner.run()
        manifest = runner.last_manifest or {}
        cached = bool(manifest.get("cached", False))
        profile_info: Optional[dict] = None
        if profiler is not None and profiler.total_samples:
            profile_info = {
                "samples": profiler.total_samples,
                "hot_frames": profiler.hot_frames(5),
            }
            if profile_path:
                profile_info["path"] = str(profiler.write(profile_path))
        if run_log:
            _append_run_log(
                run_log,
                {
                    "job_id": job_id,
                    "content_hash": scenario.content_hash(),
                    "cached": cached,
                    "pid": os.getpid(),
                },
            )
        stop.set()
        send(
            {
                "kind": "done",
                "cached": cached,
                "wall_s": float(manifest.get("wall_s", 0.0)),
                "backend": manifest.get("solver_backend"),
                "profile": profile_info,
                "telemetry": telemetry if is_obs_payload(telemetry) else None,
            }
        )
    except BaseException as exc:  # report *everything* before dying
        stop.set()
        send(
            {
                "kind": "error",
                "error_type": type(exc).__name__,
                "message": str(exc),
                "traceback": "".join(
                    traceback.format_exception(type(exc), exc, exc.__traceback__)
                ),
            }
        )
    finally:
        stop.set()
        try:
            conn.close()
        except OSError:
            pass


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

    def delay(self, attempt: int, rng: Optional[random.Random] = None) -> float:
        """Seconds to wait before re-dispatching attempt ``attempt + 1``."""
        return jittered_delay(
            self.backoff_s,
            attempt,
            cap_s=self.cap_s,
            jitter=self.jitter,
            rng=rng,
        )


class CircuitBreaker:
    """Per-key breaker over consecutive worker deaths.

    ``closed`` → normal dispatch.  ``death_threshold`` consecutive
    worker deaths for a key open the circuit: dispatch of that key is
    refused for ``cooldown_s``, after which exactly one half-open probe
    is admitted — its success closes the circuit, its death reopens it.
    """

    def __init__(
        self, *, death_threshold: int = 2, cooldown_s: float = 30.0
    ) -> None:
        self.death_threshold = int(death_threshold)
        self.cooldown_s = float(cooldown_s)
        self._deaths: Dict[str, int] = {}
        self._opened_at: Dict[str, float] = {}
        self._probing: Dict[str, bool] = {}
        self._c_opened = get_registry().counter("service.breaker.opened")

    def state(self, key: str) -> str:
        if key not in self._opened_at:
            return "closed"
        if self._probing.get(key):
            return "half-open"
        return "open"

    def allow(self, key: str, now: Optional[float] = None) -> bool:
        if key not in self._opened_at:
            return True
        if self._probing.get(key):
            return False  # one probe at a time
        now = time.monotonic() if now is None else now
        if now - self._opened_at[key] >= self.cooldown_s:
            self._probing[key] = True
            return True
        return False

    def record_death(self, key: str, now: Optional[float] = None) -> None:
        self._deaths[key] = self._deaths.get(key, 0) + 1
        now = time.monotonic() if now is None else now
        if key in self._opened_at or (
            self._deaths[key] >= self.death_threshold
        ):
            if key not in self._opened_at:
                self._c_opened.inc()
                get_tracer().event("service.breaker_open", key=key)
            self._opened_at[key] = now
            self._probing[key] = False

    def record_success(self, key: str) -> None:
        self._deaths.pop(key, None)
        if key in self._opened_at:
            get_tracer().event("service.breaker_close", key=key)
        self._opened_at.pop(key, None)
        self._probing.pop(key, None)

    def snapshot(self) -> Dict[str, str]:
        """``{key: state}`` for every key that ever tripped."""
        return {key: self.state(key) for key in self._opened_at}


@dataclass
class _Running:
    """Parent-side handle of one in-flight worker."""

    job_id: str
    process: multiprocessing.process.BaseProcess
    conn: object
    started: float
    last_heartbeat: float
    # Wall-clock twin of ``last_heartbeat`` (monotonic): the synthetic
    # ``worker.killed`` event reports *when* the worker was last known
    # alive, which must be comparable across processes and restarts.
    last_heartbeat_wall: float = 0.0
    # Wall-clock dispatch time: the reconstructed ``service.job`` span
    # must cover the worker's whole run, not the parent's bookkeeping.
    started_wall: float = 0.0
    outcome: Optional[dict] = None
    # The outcome is journaled; the worker may still be exiting.
    journaled: bool = False
    # The worker closed its end of the pipe: it has exited or is exiting.
    eof: bool = False


@dataclass
class DrainReport:
    """Outcome of a graceful drain."""

    finished: List[str] = field(default_factory=list)
    requeued: List[str] = field(default_factory=list)


def _ignore(_value: float) -> None:
    """Default event hook: without a loop, :meth:`Supervisor.tick` polls."""


class Supervisor:
    """Drive the worker pool over a :class:`JobStore`'s queue.

    Single-threaded: :meth:`poll` and :meth:`dispatch_pending` are
    called from the service loop, so every store mutation happens on
    the loop thread and the WAL sees a serialised history.

    Event hooks (no-ops until a loop sets them): ``watch(fd)`` and
    ``unwatch(fd)`` receive each worker's result-pipe descriptor at
    dispatch and at reap, ``wake_at(t)`` the ``time.monotonic()``
    instant a retry's backoff ends.  The loop wakes on them and calls
    :meth:`poll` then :meth:`dispatch_pending`.
    """

    def __init__(
        self,
        store: JobStore,
        *,
        max_workers: int = 2,
        retry: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        timeout_s: Optional[float] = None,
        heartbeat_timeout_s: float = 10.0,
        run_log: Optional[str] = None,
        rng: Optional[random.Random] = None,
        watchdog: Optional[PerfWatchdog] = None,
        profiles_dir: Optional[str] = None,
    ) -> None:
        self.store = store
        self.max_workers = int(max_workers)
        self.retry = retry if retry is not None else RetryPolicy()
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.timeout_s = timeout_s
        self.heartbeat_timeout_s = float(heartbeat_timeout_s)
        self.run_log = run_log
        self.rng = rng if rng is not None else random.Random()
        self.watchdog = watchdog
        self.profiles_dir = profiles_dir
        self.draining = False
        self._running: Dict[str, _Running] = {}
        self._not_before: Dict[str, float] = {}
        self.watch: Callable[[int], None] = _ignore
        self.unwatch: Callable[[int], None] = _ignore
        self.wake_at: Callable[[float], None] = _ignore
        self._context = multiprocessing.get_context()
        registry = get_registry()
        self._c_dispatched = registry.counter("service.jobs.dispatched")
        self._c_done = registry.counter("service.jobs.done")
        self._c_failed = registry.counter("service.jobs.failed")
        self._c_retries = registry.counter("service.jobs.retries")
        self._c_worker_deaths = registry.counter("service.worker.deaths")
        self._c_timeouts = registry.counter("service.jobs.timeouts")
        self._c_quarantined = registry.counter("service.jobs.quarantined")
        self._h_wall = registry.histogram("service.job.wall_s")
        self._g_queue_depth = registry.gauge("service.queue.depth")
        self._g_workers_alive = registry.gauge("service.workers.alive")
        self._g_wal_bytes = registry.gauge("service.wal.bytes")

    # -- dispatch -----------------------------------------------------------

    @property
    def busy(self) -> int:
        return len(self._running)

    def _dispatch(self, job: Job) -> None:
        parent_conn, child_conn = self._context.Pipe(duplex=False)
        profile_path: Optional[str] = None
        if self.profiles_dir and (job.profile or profile_requested()):
            profile_path = str(
                os.path.join(self.profiles_dir, f"{job.job_id}.collapsed")
            )
        process = self._context.Process(
            target=worker_main,
            args=(
                child_conn,
                job.job_id,
                job.scenario.to_dict(),
                str(self.store.cache.root),
                self.run_log,
                job.trace_id,
                profile_path,
            ),
            daemon=True,
        )
        self.store.transition(
            job.job_id, JobState.RUNNING, attempts=job.attempts + 1
        )
        process.start()
        child_conn.close()
        self.watch(parent_conn.fileno())
        self._not_before.pop(job.job_id, None)
        self.store.jobs[job.job_id].worker_pid = process.pid
        now = time.monotonic()
        self._running[job.job_id] = _Running(
            job_id=job.job_id,
            process=process,
            conn=parent_conn,
            started=now,
            last_heartbeat=now,
            last_heartbeat_wall=time.time(),
            started_wall=time.time(),
        )
        self._c_dispatched.inc()
        tracer = get_tracer()
        if tracer.has_sinks and job.attempts == 1 and job.submitted_at:
            # First dispatch closes the queue-wait phase of the trace:
            # the span existed only as two wall-clock timestamps, so it
            # is reconstructed here rather than measured.
            tracer.emit_span(
                "queue.wait",
                job.submitted_at,
                max(0.0, time.time() - job.submitted_at),
                job_id=job.job_id,
                trace_id=job.trace_id,
            )
        tracer.event(
            "service.dispatch", job_id=job.job_id, pid=process.pid
        )

    def dispatch_pending(self) -> int:
        """Start as many eligible pending jobs as free slots allow."""
        if self.draining or len(self._running) >= self.max_workers:
            return 0
        started = 0
        now = time.monotonic()
        for job in self.store.pending():
            if len(self._running) >= self.max_workers:
                break
            if self._not_before.get(job.job_id, 0.0) > now:
                continue
            if job.job_id in self._running:
                continue  # the failed attempt's worker is still exiting
            if not self.breaker.allow(scenario_class(job.scenario)):
                continue
            self._dispatch(job)
            started += 1
        return started

    # -- polling ------------------------------------------------------------

    def _drain_messages(self, handle: _Running) -> None:
        while True:
            try:
                if not handle.conn.poll(0):
                    return
                message = handle.conn.recv()
            except (EOFError, BrokenPipeError, OSError):
                handle.eof = True
                return
            kind = message.get("kind")
            if kind == "hb":
                handle.last_heartbeat = time.monotonic()
                handle.last_heartbeat_wall = float(
                    message.get("t", time.time())
                )
            elif kind in ("done", "error"):
                handle.outcome = message
                handle.last_heartbeat = time.monotonic()
                handle.last_heartbeat_wall = time.time()

    def _reap(self, handle: _Running) -> Optional[int]:
        """Close the pipe, join (or kill) the worker; returns its exit code."""
        self.unwatch(handle.conn.fileno())
        try:
            handle.conn.close()
        except OSError:
            pass
        handle.process.join(timeout=EXIT_GRACE_S)
        if handle.process.is_alive():
            handle.process.kill()
            handle.process.join(timeout=EXIT_GRACE_S)
        exitcode = handle.process.exitcode
        try:
            handle.process.close()
        except (ValueError, AttributeError):
            pass
        del self._running[handle.job_id]
        return exitcode

    def _kill(self, handle: _Running) -> None:
        try:
            handle.process.terminate()
        except (ValueError, OSError):
            pass
        self._reap(handle)

    def _schedule_retry(self, job: Job) -> None:
        self._c_retries.inc()
        not_before = time.monotonic() + self.retry.delay(job.attempts, self.rng)
        self._not_before[job.job_id] = not_before
        self.store.transition(job.job_id, JobState.PENDING)
        self.wake_at(not_before)

    def _finish_success(self, handle: _Running, outcome: dict) -> None:
        job = self.store.jobs[handle.job_id]
        telemetry = outcome.get("telemetry")
        backend = str(outcome.get("backend") or "unknown")
        profile = outcome.get("profile")
        if is_obs_payload(telemetry):
            tracer = get_tracer()
            if tracer.has_sinks:
                attrs: Dict[str, object] = {
                    "job_id": job.job_id,
                    "backend": backend,
                }
                if job.trace_id:
                    attrs["trace_id"] = job.trace_id
                if isinstance(profile, dict) and profile.get("hot_frames"):
                    # Fold the hottest profiled frames into the span so
                    # a trace alone answers "where did the time go".
                    attrs["profile_hot"] = ",".join(
                        f"{f['frame']}:{f['samples']}"
                        for f in profile["hot_frames"][:3]
                    )
                # Reconstructed rather than measured: the span must
                # cover dispatch -> completion, and no tracer context
                # was open across that whole window.  Emitted before
                # the ingest so its seq precedes its children's — the
                # tree builder nests strictly by (seq, depth).
                top: Dict[str, object] = {"job_id": job.job_id}
                if job.trace_id:
                    top["trace_id"] = job.trace_id
                tracer.emit_span(
                    "service.job",
                    handle.started_wall or time.time(),
                    max(0.0, time.monotonic() - handle.started),
                    attrs=attrs,
                    **top,
                )
                tracer.ingest(
                    annotate_records(
                        telemetry.get("spans", ()),
                        job_id=job.job_id,
                        trace_id=job.trace_id,
                    ),
                    depth_offset=1,
                )
            get_registry().merge(telemetry.get("metrics", {}))
        wall = time.monotonic() - handle.started
        self._h_wall.observe(wall)
        solve_wall = float(outcome.get("wall_s", wall))
        if not outcome.get("cached", False):
            get_registry().histogram(
                f"service.solve.wall_s.{backend}"
            ).observe(solve_wall)
            if self.watchdog is not None:
                self.watchdog.observe(backend, solve_wall)
        self.breaker.record_success(scenario_class(job.scenario))
        self.store.transition(job.job_id, JobState.DONE)
        self._c_done.inc()

    def _finish_error(self, handle: _Running, outcome: dict) -> None:
        job = self.store.jobs[handle.job_id]
        error = f"{outcome.get('error_type')}: {outcome.get('message')}"
        if job.attempts >= self.retry.max_attempts:
            self._c_failed.inc()
            self.store.transition(job.job_id, JobState.FAILED, error=error)
        else:
            self._schedule_retry(job)

    def _emit_worker_killed(
        self, handle: _Running, job: Job, reason: str
    ) -> None:
        """Synthesize the terminal trace event of a killed worker.

        A SIGKILLed worker never flushes its captured telemetry, so
        without this the job simply vanishes from the trace.  The
        event carries the last heartbeat wall timestamp — the moment
        the worker was last provably alive.
        """
        get_tracer().event(
            "worker.killed",
            job_id=job.job_id,
            trace_id=job.trace_id,
            reason=reason,
            last_heartbeat=handle.last_heartbeat_wall,
            attempts=job.attempts,
            pid=job.worker_pid,
        )

    def _finish_death(self, handle: _Running) -> None:
        """The worker closed its pipe or exited without an outcome."""
        job = self.store.jobs[handle.job_id]
        key = scenario_class(job.scenario)
        reason = f"exitcode {self._reap(handle)}"
        self._c_worker_deaths.inc()
        self.breaker.record_death(key)
        get_tracer().event(
            "service.worker_death",
            job_id=job.job_id,
            reason=reason,
            scenario_class=key,
        )
        self._emit_worker_killed(handle, job, reason)
        if job.attempts >= self.retry.max_attempts:
            self._c_quarantined.inc()
            self.store.transition(
                job.job_id,
                JobState.QUARANTINED,
                error=f"worker died repeatedly ({reason}); "
                f"spec quarantined after {job.attempts} attempts",
            )
        else:
            self._schedule_retry(job)

    def _finish_timeout(self, handle: _Running, reason: str) -> None:
        job = self.store.jobs[handle.job_id]
        self._c_timeouts.inc()
        self._emit_worker_killed(handle, job, reason)
        self._kill(handle)
        if job.attempts >= self.retry.max_attempts:
            self._c_failed.inc()
            self.store.transition(job.job_id, JobState.FAILED, error=reason)
        else:
            self._schedule_retry(job)

    def poll(self) -> None:
        """One supervision pass over every in-flight worker."""
        now = time.monotonic()
        for handle in list(self._running.values()):
            self._drain_messages(handle)
            alive = handle.process.is_alive()
            if handle.outcome is None and not alive:
                # One last look: the worker may have sent its outcome
                # between the drain above and its exit.
                self._drain_messages(handle)
            if handle.outcome is not None:
                if not handle.journaled:
                    if handle.outcome.get("kind") == "done":
                        self._finish_success(handle, handle.outcome)
                    else:
                        self._finish_error(handle, handle.outcome)
                    handle.journaled = True
                # The outcome is journaled on its message; the worker
                # is joined once its pipe reports EOF, so the loop does
                # not wait on its exit.
                if handle.eof or not alive:
                    self._reap(handle)
                elif now - handle.last_heartbeat > EXIT_GRACE_S:
                    self._kill(handle)
                continue
            if handle.eof or not alive:
                self._finish_death(handle)
                continue
            if (
                self.timeout_s is not None
                and now - handle.started > self.timeout_s
            ):
                self._finish_timeout(
                    handle,
                    f"job exceeded the {self.timeout_s} s deadline",
                )
                continue
            if now - handle.last_heartbeat > self.heartbeat_timeout_s:
                self._finish_timeout(
                    handle,
                    f"no heartbeat for {self.heartbeat_timeout_s} s "
                    "(worker hung)",
                )

    def tick(self) -> None:
        """One clock-driven pass: reap finished work, start new work."""
        self.poll()
        self.dispatch_pending()
        self.update_gauges()

    def update_gauges(self) -> None:
        """Refresh the live operational gauges from current state."""
        self._g_queue_depth.set(
            sum(
                1
                for job in self.store.jobs.values()
                if job.state == JobState.PENDING
            )
        )
        self._g_workers_alive.set(len(self._running))
        self._g_wal_bytes.set(self.store.wal.size_bytes())

    # -- control ------------------------------------------------------------

    def cancel(self, job_id: str) -> Job:
        """Cancel a pending or running job (kills its worker)."""
        job = self.store.jobs[job_id]
        if job.state == JobState.RUNNING and job_id in self._running:
            self._kill(self._running[job_id])
        self._not_before.pop(job_id, None)
        return self.store.transition(job_id, JobState.CANCELLED)

    def drain(self, timeout_s: float = 60.0) -> DrainReport:
        """Graceful shutdown: finish in-flight work, re-enqueue the rest.

        Dispatch stops immediately; in-flight workers get up to
        ``timeout_s`` to finish.  Whatever is still running then is
        terminated and journaled back to ``PENDING`` — the WAL is the
        checkpoint, so a restart resumes exactly there.
        """
        self.draining = True
        report = DrainReport()
        deadline = time.monotonic() + timeout_s
        while self._running and time.monotonic() < deadline:
            before = set(self._running)
            self.poll()
            for job_id in before - set(self._running):
                if self.store.jobs[job_id].state == JobState.DONE:
                    report.finished.append(job_id)
            time.sleep(0.05)
        for handle in list(self._running.values()):
            job = self.store.jobs[handle.job_id]
            self._kill(handle)
            if not job.state.terminal:
                self.store.transition(handle.job_id, JobState.PENDING)
                report.requeued.append(handle.job_id)
        get_tracer().event(
            "service.drained",
            finished=len(report.finished),
            requeued=len(report.requeued),
        )
        return report

    def shutdown(self) -> None:
        """Hard stop: kill every worker without touching job states."""
        for handle in list(self._running.values()):
            self._kill(handle)
