"""Durable job table: submissions and state transitions behind a WAL.

A *job* is one scenario execution request.  The store keeps the
authoritative in-memory table but journals **every** mutation through
the :class:`~repro.service.wal.WriteAheadLog` *before* applying it, so
replaying the log after a crash reconstructs the table exactly.

Recovery invariants (asserted by the chaos suite):

* every accepted job is present after a restart (no job lost);
* jobs that were ``RUNNING`` at crash time are re-enqueued as
  ``PENDING`` — their worker died with the service, so the attempt is
  rerun; the result cache makes the rerun idempotent;
* a resubmitted identical spec (same
  :meth:`~repro.scenario.Scenario.content_hash`) attaches to the live
  job, or — when a completed twin's result is still in the cache —
  returns ``DONE`` immediately with zero additional solves.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..obs.metrics import get_registry
from ..obs.trace import get_tracer
from ..scenario.cache import ResultCache
from ..scenario.spec import Scenario, ScenarioError
from .wal import WalRecoveryReport, WriteAheadLog


class JobState(str, Enum):
    """Lifecycle of one job; terminal states are never left."""

    PENDING = "PENDING"
    RUNNING = "RUNNING"
    DONE = "DONE"
    FAILED = "FAILED"
    CANCELLED = "CANCELLED"
    QUARANTINED = "QUARANTINED"

    @property
    def terminal(self) -> bool:
        return self in _TERMINAL


_TERMINAL = {
    JobState.DONE,
    JobState.FAILED,
    JobState.CANCELLED,
    JobState.QUARANTINED,
}

_ACTIVE = {JobState.PENDING, JobState.RUNNING}


@dataclass
class Job:
    """One journaled scenario execution request."""

    job_id: str
    scenario: Scenario
    content_hash: str
    state: JobState = JobState.PENDING
    attempts: int = 0
    submitted_at: float = 0.0
    updated_at: float = 0.0
    error: Optional[str] = None
    worker_pid: Optional[int] = None
    attached: int = 0
    # Trace-context propagation (DESIGN.md section 16): the id minted
    # by `repro submit` and the client's wall-clock submit time, both
    # journaled so a recovered job keeps its distributed trace.
    trace_id: Optional[str] = None
    client_t0: Optional[float] = None
    profile: bool = False

    def describe(self) -> Dict[str, object]:
        """JSON-safe public view (the protocol's ``status`` payload)."""
        return {
            "job_id": self.job_id,
            "state": self.state.value,
            "content_hash": self.content_hash,
            "label": self.scenario.label,
            "attempts": self.attempts,
            "submitted_at": self.submitted_at,
            "updated_at": self.updated_at,
            "error": self.error,
            "worker_pid": self.worker_pid,
            "attached": self.attached,
            "trace_id": self.trace_id,
        }

    def snapshot_record(self) -> Dict[str, object]:
        """Compacted WAL record carrying the full job (rotation)."""
        record: Dict[str, object] = {
            "type": "job",
            "job_id": self.job_id,
            "scenario": self.scenario.to_dict(),
            "state": self.state.value,
            "attempts": self.attempts,
            "submitted_at": self.submitted_at,
            "updated_at": self.updated_at,
            "error": self.error,
        }
        if self.trace_id is not None:
            record["trace_id"] = self.trace_id
        if self.client_t0 is not None:
            record["client_t0"] = self.client_t0
        if self.profile:
            record["profile"] = True
        return record


@dataclass
class RecoveryStats:
    """What startup replay found and fixed."""

    jobs: int = 0
    requeued: int = 0
    corrupt_tail_segments: int = 0
    dropped_bytes: int = 0
    bad_records: int = 0


class JobStore:
    """WAL-backed job table with content-hash dedupe.

    Parameters
    ----------
    root:
        Service state directory; the WAL lives in ``root/wal`` and the
        result cache (when not supplied) in ``root/cache``.
    cache:
        Result cache consulted for completed-twin dedupe; defaults to
        ``ResultCache(root / "cache")`` so service results live next to
        the journal.
    fsync:
        Forwarded to the WAL (tests disable it for speed).
    rotate_after:
        WAL appends between compactions.
    """

    def __init__(
        self,
        root: Union[str, Path],
        *,
        cache: Optional[ResultCache] = None,
        fsync: bool = True,
        rotate_after: int = 4096,
    ) -> None:
        self.root = Path(root)
        self.cache = cache if cache is not None else ResultCache(
            self.root / "cache"
        )
        self.wal = WriteAheadLog(
            self.root / "wal", fsync=fsync, rotate_after=rotate_after
        )
        self.jobs: Dict[str, Job] = {}
        self._active_by_hash: Dict[str, str] = {}
        self._done_by_hash: Dict[str, str] = {}
        self._seq = 0
        registry = get_registry()
        self._c_submitted = registry.counter("service.jobs.submitted")
        self._c_deduped = registry.counter("service.jobs.deduped")
        self._c_requeued = registry.counter("service.jobs.requeued")
        self._c_transitions = registry.counter("service.jobs.transitions")
        self.recovery = self._recover()

    # -- recovery -----------------------------------------------------------

    def _apply_record(self, record: dict, stats: RecoveryStats) -> None:
        kind = record.get("type")
        if kind in ("submit", "job"):
            try:
                scenario = Scenario.from_dict(record["scenario"])
            except (ScenarioError, KeyError, TypeError):
                stats.bad_records += 1
                return
            job_id = str(record.get("job_id", ""))
            job = Job(
                job_id=job_id,
                scenario=scenario,
                content_hash=scenario.content_hash(),
                state=JobState(record.get("state", "PENDING")),
                attempts=int(record.get("attempts", 0)),
                submitted_at=float(record.get("submitted_at", 0.0)),
                updated_at=float(record.get("updated_at", 0.0)),
                error=record.get("error"),
                trace_id=record.get("trace_id"),
                client_t0=record.get("client_t0"),
                profile=bool(record.get("profile", False)),
            )
            self.jobs[job_id] = job
            suffix = job_id.rsplit("-", 1)[-1]
            if suffix.isdigit():
                self._seq = max(self._seq, int(suffix))
        elif kind == "transition":
            job = self.jobs.get(str(record.get("job_id", "")))
            if job is None:
                stats.bad_records += 1
                return
            try:
                job.state = JobState(record["state"])
            except (KeyError, ValueError):
                stats.bad_records += 1
                return
            job.attempts = int(record.get("attempts", job.attempts))
            job.error = record.get("error", job.error)
            job.updated_at = float(record.get("t", job.updated_at))
        # Unknown record types from future schema versions are ignored:
        # an old binary replaying a newer log must not crash on them.

    def _recover(self) -> RecoveryStats:
        stats = RecoveryStats()
        report: WalRecoveryReport = self.wal.replay()
        for record in report.records:
            self._apply_record(record, stats)
        stats.corrupt_tail_segments = len(report.corrupt_tail_segments)
        stats.dropped_bytes = report.dropped_bytes
        stats.jobs = len(self.jobs)
        # Orphaned RUNNING jobs: the worker died with the service.
        for job in self.jobs.values():
            if job.state == JobState.RUNNING:
                self._journal_transition(job, JobState.PENDING)
                stats.requeued += 1
                self._c_requeued.inc()
        for job in self.jobs.values():
            if job.state in _ACTIVE:
                self._active_by_hash[job.content_hash] = job.job_id
            elif job.state == JobState.DONE:
                self._done_by_hash[job.content_hash] = job.job_id
        if stats.jobs or stats.requeued or stats.corrupt_tail_segments:
            get_tracer().event(
                "service.recovered",
                jobs=stats.jobs,
                requeued=stats.requeued,
                corrupt_tail_segments=stats.corrupt_tail_segments,
            )
        return stats

    # -- mutation -----------------------------------------------------------

    def _journal_transition(self, job: Job, state: JobState, **extra) -> None:
        now = time.time()
        record = {
            "type": "transition",
            "job_id": job.job_id,
            "state": state.value,
            "attempts": int(extra.pop("attempts", job.attempts)),
            "t": now,
        }
        error = extra.pop("error", None)
        if error is not None:
            record["error"] = str(error)
        self.wal.append(record)
        job.state = state
        job.attempts = int(record["attempts"])
        if error is not None:
            job.error = str(error)
        job.updated_at = now

    def submit(
        self,
        scenario: Scenario,
        *,
        trace: Optional[dict] = None,
        profile: bool = False,
    ) -> Tuple[Job, str]:
        """Accept one spec; returns ``(job, disposition)``.

        ``disposition`` is ``"new"`` (journaled and enqueued),
        ``"attached"`` (an identical spec is already pending/running —
        the caller shares its job id) or ``"cached"`` (an identical
        spec already completed and its result is still in the cache —
        zero additional solves).

        ``trace`` is the wire form of a client-minted
        :class:`~repro.obs.live.TraceContext`; on dedupe the job keeps
        its original trace (the first submitter owns the tree) and the
        attaching client learns the id from the response.
        """
        from ..obs.live import TraceContext

        context = TraceContext.from_wire(trace)
        content = scenario.content_hash()
        live_id = self._active_by_hash.get(content)
        if live_id is not None:
            job = self.jobs[live_id]
            job.attached += 1
            self._c_deduped.inc()
            return job, "attached"
        done_id = self._done_by_hash.get(content)
        if done_id is not None and self.cache.get(scenario) is not None:
            job = self.jobs[done_id]
            job.attached += 1
            self._c_deduped.inc()
            return job, "cached"
        self._seq += 1
        now = time.time()
        job = Job(
            job_id=f"job-{self._seq:06d}",
            scenario=scenario,
            content_hash=content,
            state=JobState.PENDING,
            submitted_at=now,
            updated_at=now,
            trace_id=context.trace_id if context else None,
            client_t0=context.client_t0 if context else None,
            profile=profile,
        )
        record: Dict[str, object] = {
            "type": "submit",
            "job_id": job.job_id,
            "scenario": scenario.to_dict(),
            "content_hash": content,
            "state": job.state.value,
            "submitted_at": now,
            "updated_at": now,
        }
        if job.trace_id is not None:
            record["trace_id"] = job.trace_id
        if job.client_t0 is not None:
            record["client_t0"] = job.client_t0
        if job.profile:
            record["profile"] = True
        self.wal.append(record)
        self.jobs[job.job_id] = job
        self._active_by_hash[content] = job.job_id
        self._c_submitted.inc()
        return job, "new"

    def transition(
        self,
        job_id: str,
        state: JobState,
        *,
        attempts: Optional[int] = None,
        error: Optional[str] = None,
        worker_pid: Optional[int] = None,
    ) -> Job:
        """Journal then apply one state change (WAL-first, always)."""
        job = self.jobs[job_id]
        if job.state.terminal and state != job.state:
            raise ValueError(
                f"{job_id} is terminal ({job.state.value}); "
                f"cannot move to {state.value}"
            )
        extra: Dict[str, object] = {}
        if attempts is not None:
            extra["attempts"] = attempts
        if error is not None:
            extra["error"] = error
        self._journal_transition(job, state, **extra)
        job.worker_pid = worker_pid
        if state in _ACTIVE:
            self._active_by_hash[job.content_hash] = job.job_id
        else:
            if self._active_by_hash.get(job.content_hash) == job.job_id:
                del self._active_by_hash[job.content_hash]
            if state == JobState.DONE:
                self._done_by_hash[job.content_hash] = job.job_id
        self._c_transitions.inc()
        get_tracer().event(
            "service.job_transition", job_id=job_id, state=state.value
        )
        self.wal.maybe_rotate(
            lambda: [job.snapshot_record() for job in self.jobs.values()]
        )
        return job

    # -- queries ------------------------------------------------------------

    def get(self, job_id: str) -> Optional[Job]:
        return self.jobs.get(job_id)

    def pending(self) -> List[Job]:
        """PENDING jobs in submission order."""
        return sorted(
            (j for j in self.jobs.values() if j.state == JobState.PENDING),
            key=lambda j: j.job_id,
        )

    def counts(self) -> Dict[str, int]:
        """``{state: count}`` over every known job."""
        out = {state.value: 0 for state in JobState}
        for job in self.jobs.values():
            out[job.state.value] += 1
        return out

    def close(self) -> None:
        self.wal.close()
