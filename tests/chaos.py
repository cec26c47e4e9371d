"""Chaos-testing helpers for the durable scenario-job service.

These utilities deliberately break things — kill workers mid-solve,
``kill -9`` the whole service, tear the WAL tail, SIGTERM a drain —
so the chaos suite (``tests/test_service_chaos.py``) can assert the
service's recovery invariants:

* **no job lost** — every accepted job is present after a restart;
* **no job run twice to completion** — the solve log records exactly
  one uncached solve per content hash, across any number of crashes;
* **the cache is never corrupted** — results read back after recovery
  are complete and loadable.

The service under test runs as a real subprocess (``python -m repro
serve``), because crash-safety claims about a process are only
meaningful when there *is* a process to kill.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.scenario import (
    PolicySpec,
    Scenario,
    SolverSpec,
    StackSpec,
    WorkloadSpec,
)
from repro.service import ServiceClient

#: Coarse-but-valid grid (the floorplan needs at least 12x10 cells).
NX, NY = 12, 10

#: Short closed-loop run: ~20 control steps, a fraction of a second.
DURATION = 2


def make_scenario(label: str = "chaos", workload: str = "database") -> Scenario:
    """A fast, valid scenario; distinct labels share one content hash."""
    policy = PolicySpec(name="LC_FUZZY")
    return Scenario(
        stack=StackSpec(tiers=2, cooling=policy.cooling),
        workload=WorkloadSpec(name=workload, duration=DURATION),
        policy=policy,
        solver=SolverSpec(nx=NX, ny=NY),
        label=label,
    )


def read_run_log(root: Path) -> List[dict]:
    """Decoded entries of the service's solve log (``runs.jsonl``)."""
    path = Path(root) / "runs.jsonl"
    if not path.exists():
        return []
    entries = []
    for line in path.read_text().splitlines():
        if line.strip():
            entries.append(json.loads(line))
    return entries


def count_solves(root: Path, content_hash: Optional[str] = None) -> int:
    """Uncached solves recorded in the run log (optionally per hash).

    This is the ground truth behind "exactly once": a worker appends
    one O_APPEND-atomic line per *completed* solve, so two uncached
    lines for one hash would mean a job ran twice to completion.
    """
    return sum(
        1
        for entry in read_run_log(root)
        if not entry.get("cached", False)
        and (content_hash is None or entry.get("content_hash") == content_hash)
    )


def truncate_wal_tail(root: Path, keep_fraction: float = 0.6) -> Path:
    """Tear the newest WAL segment mid-record, like a crash mid-write.

    Cuts the segment to ``keep_fraction`` of its size — almost always
    landing inside a record — and returns the mangled segment path.
    """
    wal_dir = Path(root) / "wal"
    segments = sorted(wal_dir.glob("wal-*.jsonl"))
    assert segments, f"no WAL segments under {wal_dir}"
    segment = segments[-1]
    size = segment.stat().st_size
    with open(segment, "r+b") as handle:
        handle.truncate(max(1, int(size * keep_fraction)))
    return segment


def garble_wal_tail(root: Path, garbage: bytes = b'{"type": "subm') -> Path:
    """Append a torn, newline-less record to the newest WAL segment."""
    wal_dir = Path(root) / "wal"
    segments = sorted(wal_dir.glob("wal-*.jsonl"))
    assert segments, f"no WAL segments under {wal_dir}"
    segment = segments[-1]
    with open(segment, "ab") as handle:
        handle.write(garbage)
    return segment


class ServiceHarness:
    """Drive a ``repro serve`` subprocess and do unkind things to it.

    Parameters
    ----------
    root:
        Service state directory (survives restarts — that is the
        point).
    solve_delay_s:
        Injected pre-solve sleep in every worker (the chaos window for
        killing a worker "mid-solve"); 0 disables it.
    """

    def __init__(
        self,
        root: Path,
        *,
        workers: int = 1,
        retries: int = 2,
        backoff_s: float = 0.05,
        drain_timeout_s: float = 30.0,
        solve_delay_s: float = 0.0,
        fsync: bool = False,
    ) -> None:
        self.root = Path(root)
        self.workers = workers
        self.retries = retries
        self.backoff_s = backoff_s
        self.drain_timeout_s = drain_timeout_s
        self.solve_delay_s = solve_delay_s
        self.fsync = fsync
        self.process: Optional[subprocess.Popen] = None
        self.client = ServiceClient(self.root / "service.sock", timeout=30.0)

    # -- lifecycle ----------------------------------------------------------

    def start(self, ready_timeout: float = 30.0) -> "ServiceHarness":
        assert self.process is None or self.process.poll() is not None
        env = dict(os.environ)
        src = Path(__file__).resolve().parent.parent / "src"
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), env.get("PYTHONPATH")) if p
        )
        if self.solve_delay_s > 0:
            env["REPRO_SERVICE_TEST_DELAY_S"] = str(self.solve_delay_s)
        else:
            env.pop("REPRO_SERVICE_TEST_DELAY_S", None)
        command = [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--root",
            str(self.root),
            "--workers",
            str(self.workers),
            "--retries",
            str(self.retries),
            "--backoff",
            str(self.backoff_s),
            "--drain-timeout",
            str(self.drain_timeout_s),
        ]
        if not self.fsync:
            command.append("--no-fsync")
        # A file, not a pipe: nothing reads the output while the
        # service runs, and a full pipe would block it.  The child
        # keeps its own descriptor, so the harness closes its copy.
        self.root.mkdir(parents=True, exist_ok=True)
        with open(self.root / "serve.log", "ab") as log:
            self.process = subprocess.Popen(
                command, env=env, stdout=log, stderr=subprocess.STDOUT
            )
        self.client.wait_ready(ready_timeout)
        return self

    def kill9(self) -> None:
        """SIGKILL the service — no drain, no cleanup, no goodbye."""
        assert self.process is not None
        self.process.kill()
        self.process.wait(timeout=30)

    def sigterm(self, timeout: float = 60.0) -> int:
        """SIGTERM the service and return its (graceful) exit code."""
        assert self.process is not None
        self.process.send_signal(signal.SIGTERM)
        return self.process.wait(timeout=timeout)

    def stop(self) -> None:
        """Best-effort teardown for test cleanup."""
        if self.process is not None and self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=30)

    def output(self) -> str:
        """What the service printed, across every start on this root."""
        assert self.process is not None and self.process.poll() is not None
        return (self.root / "serve.log").read_text(errors="replace")

    # -- chaos actions ------------------------------------------------------

    def submit(self, scenario: Scenario) -> Dict[str, object]:
        return self.client.submit(scenario.to_dict())

    def wait_running(
        self, job_id: str, timeout: float = 30.0
    ) -> Dict[str, object]:
        """Block until the job is RUNNING with a live worker pid."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            job = self.client.status(job_id)["job"]
            if job["state"] == "RUNNING" and job.get("worker_pid"):
                return job
            if job["state"] in ("DONE", "FAILED", "QUARANTINED"):
                raise AssertionError(
                    f"{job_id} finished ({job['state']}) before the kill "
                    "window; raise solve_delay_s"
                )
            time.sleep(0.02)
        raise TimeoutError(f"{job_id} never started running")

    def kill_worker(self, job_id: str) -> int:
        """SIGKILL the worker currently solving ``job_id``; returns pid."""
        job = self.wait_running(job_id)
        pid = int(job["worker_pid"])
        os.kill(pid, signal.SIGKILL)
        return pid

    def wait_done(
        self, job_id: str, timeout: float = 120.0
    ) -> Dict[str, object]:
        job = self.client.wait_for(job_id, timeout=timeout)
        assert job["state"] == "DONE", f"{job_id} ended {job['state']}: {job}"
        return job
