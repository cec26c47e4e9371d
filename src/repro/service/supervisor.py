"""Worker supervision: the service's retries, breaker and drain.

Job attempts run in worker processes on the
:class:`repro.workers.AttemptTable` the sweeps use too, which keeps the
deadlines, the heartbeat check (a worker-side thread sends ``hb``
every few hundred milliseconds; a stale heartbeat means hung, not
slow), the jittered retry backoffs and the reaping.  A worker is warm:
it keeps the thermal model of its jobs' :meth:`Scenario.model_hash`,
with every LU factor it has built, and after a job that ends ``DONE``
it parks until the supervisor hands it the next job of that hash.  The
supervisor keeps what is the service's own on top: which worker runs
which job, WAL transitions, the breaker, the solve log, the profiler,
the reconstructed trace records, cancel and drain.

Failure policy, in order of escalation:

* an **exception** in the solve is retried up to the policy's bounded
  attempts, then marked ``FAILED``;
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
free.  No event loop is needed: :meth:`Supervisor.tick` called on a
clock finds every outcome by polling, and a loop that sets the table's
hooks runs :meth:`Supervisor.poll` and
:meth:`Supervisor.dispatch_pending` whenever one fires (DESIGN.md
section 13).
"""

from __future__ import annotations

import functools
import os
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

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
from ..scenario.runner import KeptModel, Runner
from ..scenario.spec import Scenario
from ..workers import (
    EXIT_GRACE_S,  # noqa: F401 - part of this module's API
    Attempt,
    AttemptTable,
    RetryPolicy,
    error_report,
)
from .jobs import Job, JobState, JobStore

HEARTBEAT_INTERVAL_S = 0.2
"""Worker-side heartbeat period."""

TEST_DELAY_ENV = "REPRO_SERVICE_TEST_DELAY_S"
"""Chaos hook: seconds a worker sleeps before solving (see tests/chaos.py)."""


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
    *,
    kept: KeptModel,
) -> None:
    """Process-worker entry: solve one scenario and report.

    Runs in a worker process, once per job the worker is handed.  The
    result lands in the shared :class:`ResultCache` (and its run
    manifest next to it) *before* the ``done`` message is sent, so a
    crash after the cache write at worst reruns a job whose rerun is a
    pure cache hit.  ``kept`` is the worker's :class:`KeptModel`: the
    thermal model outlives the job there, so the next job of its hash
    skips the assembly and every factorisation this one made.

    ``trace_id`` is the propagated client trace context — stamped on
    heartbeats (the supervisor's only live view into the worker) and
    installed as the process-wide current trace.  ``profile_path``
    turns on the sampling profiler for the solve and writes the
    collapsed stacks there; hot frames ride back in the ``done``
    message.
    """
    send_lock = threading.Lock()
    stop = threading.Event()
    set_current_trace(TraceContext(trace_id) if trace_id else None)

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
            runner = Runner(scenario, model=kept.for_run(scenario, cache), cache=cache)
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
        send(error_report(exc))
    finally:
        # No heartbeat of this job may follow the worker's next message.
        stop.set()
        ticker.join()


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
class DrainReport:
    """Outcome of a graceful drain."""

    finished: List[str] = field(default_factory=list)
    requeued: List[str] = field(default_factory=list)


class Supervisor:
    """Drive the worker pool over a :class:`JobStore`'s queue.

    Single-threaded: :meth:`poll` and :meth:`dispatch_pending` are
    called from the service loop, so every store mutation happens on
    the loop thread and the WAL sees a serialised history.  The
    workers, their deadlines, heartbeats and backoffs are the
    ``workers`` :class:`~repro.workers.AttemptTable`, keyed by job id;
    a loop sets its event hooks.  At most ``max_workers`` workers live,
    running or parked; a parked worker keeps the model of one
    :meth:`Scenario.model_hash` and takes only jobs of that hash.
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
        self.workers = AttemptTable(
            retry=retry,
            timeout_s=timeout_s,
            heartbeat_timeout_s=float(heartbeat_timeout_s),
            rng=rng,
        )
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.run_log = run_log
        self.watchdog = watchdog
        self.profiles_dir = profiles_dir
        self.draining = False
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
        self._c_forked = registry.counter("service.workers.forked")
        self._c_handovers = registry.counter("service.workers.handovers")

    # -- dispatch -----------------------------------------------------------

    @property
    def busy(self) -> int:
        return len(self.workers.running)

    def worker_status(self) -> Dict[str, object]:
        """The workers the supervisor holds: ``busy`` running an
        attempt, ``parked`` waiting for a job of the model hash listed
        in ``parked_models`` (least recently used first), and ``max``."""
        parked = self.workers.parked
        return {
            "busy": self.busy,
            "parked": len(parked),
            "max": self.max_workers,
            "parked_models": [worker.group for worker in parked],
        }

    def _dispatch(self, job: Job) -> None:
        profile_path: Optional[str] = None
        if self.profiles_dir and (job.profile or profile_requested()):
            profile_path = str(
                os.path.join(self.profiles_dir, f"{job.job_id}.collapsed")
            )
        self.store.transition(
            job.job_id, JobState.RUNNING, attempts=job.attempts + 1
        )
        # A new worker keeps the model of its jobs' hash.
        attempt = self.workers.dispatch(
            job.job_id,
            functools.partial(worker_main, kept=KeptModel()),
            (
                job.job_id,
                job.scenario.to_dict(),
                str(self.store.cache.root),
                self.run_log,
                job.trace_id,
                profile_path,
            ),
            group=job.scenario.model_hash(),
            slots=self.max_workers,
            daemon=True,
        )
        (self._c_handovers if attempt.handed_over else self._c_forked).inc()
        pid = attempt.process.pid
        self.store.jobs[job.job_id].worker_pid = pid
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
        tracer.event("service.dispatch", job_id=job.job_id, pid=pid)

    def dispatch_pending(self) -> int:
        """Start as many eligible pending jobs as free slots allow."""
        if self.draining or self.busy >= self.max_workers:
            return 0
        started = 0
        for job in self.store.pending():
            if self.busy >= self.max_workers:
                break
            if not self.workers.ready(job.job_id):
                continue
            if not self.breaker.allow(scenario_class(job.scenario)):
                continue
            self._dispatch(job)
            started += 1
        return started

    # -- outcomes -----------------------------------------------------------

    def _retry(self, job: Job) -> bool:
        """Journal ``job`` back to ``PENDING`` when it has attempts left."""
        if not self.workers.retry_later(job.job_id, job.attempts):
            return False
        self._c_retries.inc()
        self.store.transition(job.job_id, JobState.PENDING)
        return True

    def _finish_success(self, attempt: Attempt) -> None:
        job = self.store.jobs[attempt.key]
        outcome = attempt.outcome
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
                    attempt.started_wall,
                    max(0.0, time.monotonic() - attempt.started),
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
        wall = time.monotonic() - attempt.started
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

    def _finish_failure(self, attempt: Attempt) -> None:
        """The job raised, or its worker was overdue and killed."""
        job = self.store.jobs[attempt.key]
        outcome = attempt.outcome
        error = outcome["message"]
        if outcome["kind"] == "timeout":
            self._c_timeouts.inc()
            self._emit_worker_killed(attempt, job, error)
        else:
            error = f"{outcome.get('error_type')}: {error}"
        if not self._retry(job):
            self._c_failed.inc()
            self.store.transition(job.job_id, JobState.FAILED, error=error)

    def _emit_worker_killed(self, attempt: Attempt, job: Job, reason: str) -> None:
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
            last_heartbeat=attempt.last_heartbeat_wall,
            attempts=job.attempts,
            pid=job.worker_pid,
        )

    def _finish_death(self, attempt: Attempt) -> None:
        """The worker exited without an outcome."""
        job = self.store.jobs[attempt.key]
        key = scenario_class(job.scenario)
        reason = f"exitcode {attempt.outcome['exitcode']}"
        self._c_worker_deaths.inc()
        self.breaker.record_death(key)
        get_tracer().event(
            "service.worker_death",
            job_id=job.job_id,
            reason=reason,
            scenario_class=key,
        )
        self._emit_worker_killed(attempt, job, reason)
        if not self._retry(job):
            self._c_quarantined.inc()
            self.store.transition(
                job.job_id,
                JobState.QUARANTINED,
                error=f"worker died repeatedly ({reason}); "
                f"spec quarantined after {job.attempts} attempts",
            )

    def poll(self) -> None:
        """One supervision pass over every in-flight worker."""
        for attempt in self.workers.poll():
            kind = attempt.outcome["kind"]
            if kind == "done":
                self._finish_success(attempt)
            elif kind == "crash":
                self._finish_death(attempt)
            else:
                self._finish_failure(attempt)

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
        self._g_workers_alive.set(self.busy + len(self.workers.parked))
        self._g_wal_bytes.set(self.store.wal.size_bytes())

    # -- control ------------------------------------------------------------

    def cancel(self, job_id: str) -> Job:
        """Cancel a pending or running job (kills its worker, warm or
        not)."""
        self.workers.cancel(job_id)
        return self.store.transition(job_id, JobState.CANCELLED)

    def drain(self, timeout_s: float = 60.0) -> DrainReport:
        """Graceful shutdown: finish in-flight work, re-enqueue the rest.

        Dispatch stops immediately; in-flight workers get up to
        ``timeout_s`` to finish, the drain waking on their pipes.
        Whatever is still running then is terminated and journaled back
        to ``PENDING`` — the WAL is the checkpoint, so a restart resumes
        exactly there.  Parked workers are reaped last.
        """
        self.draining = True
        report = DrainReport()
        deadline = time.monotonic() + timeout_s
        while self.workers.running and time.monotonic() < deadline:
            before = set(self.workers.running)
            self.workers.wait(deadline - time.monotonic())
            self.poll()
            for job_id in before - set(self.workers.running):
                if self.store.jobs[job_id].state == JobState.DONE:
                    report.finished.append(job_id)
        for job_id in list(self.workers.running):
            self.workers.cancel(job_id)
            if not self.store.jobs[job_id].state.terminal:
                self.store.transition(job_id, JobState.PENDING)
                report.requeued.append(job_id)
        self.workers.close()
        get_tracer().event(
            "service.drained",
            finished=len(report.finished),
            requeued=len(report.requeued),
        )
        return report

    def shutdown(self) -> None:
        """Hard stop: kill every running worker and reap every parked one,
        without touching job states."""
        self.workers.close()
