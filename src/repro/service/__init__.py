"""Durable scenario-job service.

A long-running asyncio service that accepts declarative
:class:`~repro.scenario.Scenario` specs as *jobs*, runs them on a
supervised pool of process workers, and guarantees durability: every
accepted job survives process crashes, worker deaths and service
restarts.

The pieces, bottom-up:

* :class:`~repro.service.wal.WriteAheadLog` — append-only JSONL
  journal with atomic segment rotation and a corrupt-tail
  truncate-and-replay recovery path.
* :class:`~repro.service.jobs.JobStore` — job table journaled through
  the WAL; replays on startup, re-enqueues jobs that were ``RUNNING``
  at crash time, dedupes by :meth:`Scenario.content_hash`.
* :class:`~repro.service.supervisor.Supervisor` — drives process
  workers on the :class:`repro.workers.AttemptTable` the sweeps share
  (heartbeats, timeouts, bounded jittered retries) and adds a
  per-scenario-class circuit breaker (poison-job quarantine) and
  graceful drain on SIGTERM.
* :mod:`~repro.service.protocol` — minimal JSON-lines socket protocol
  (submit/status/result/cancel/health/jobs) plus the synchronous
  :class:`ServiceClient` used by the CLI and the chaos tests.
* :class:`~repro.service.service.ScenarioJobService` — ties the store,
  supervisor and protocol server together behind ``repro serve``.

See DESIGN.md §13 for the WAL format and the recovery invariants the
chaos suite (``tests/test_service_chaos.py``) asserts.
"""

from .jobs import Job, JobState, JobStore
from .protocol import ProtocolError, ServiceClient
from .service import ScenarioJobService
from .supervisor import CircuitBreaker, RetryPolicy, Supervisor
from .wal import WalRecoveryReport, WriteAheadLog

__all__ = [
    "CircuitBreaker",
    "Job",
    "JobState",
    "JobStore",
    "ProtocolError",
    "RetryPolicy",
    "ScenarioJobService",
    "ServiceClient",
    "Supervisor",
    "WalRecoveryReport",
    "WriteAheadLog",
]
