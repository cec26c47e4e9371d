"""service: ``repro serve --workers 2`` driven by a closed loop of two clients.

The solve is a minority of the round trip: queueing, dispatch on the
service's 50 ms tick, worker fork, WAL journaling (fsync on, the
default) and the RPCs make up the rest.  The loop is closed because
``repro submit --wait`` callers wait for their reply.  Every job is a
distinct seed on a fresh root, so neither dedupe nor the result cache
can answer without solving.
"""

from __future__ import annotations

import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

from repro.service.protocol import ProtocolError, ServiceClient

from . import checks, inputs
from .common import (
    REPO_ROOT,
    Outcome,
    count_beyond,
    fastest,
    percentile,
    process_peak_rss_mb,
    work_root,
)

WORKERS = 2
CLIENTS = 2
TIMED_STARTS = 4
"""Service starts timed for ``setup_s``, after one discarded warm-up
start; the last one serves the load."""
MIN_JOBS = 100
"""Enough jobs that p90 has at least ten samples beyond it."""
JOBS_PER_SECOND = 6
"""Jobs per ``--seconds`` (the closed loop completes about six a
second on a 2-vCPU VM); fixes the job count, never from a clock."""
POLL_S = 0.01
"""Status poll period: fine enough to resolve the service's 50 ms tick."""
READY_TIMEOUT_S = 60.0
JOB_TIMEOUT_S = 60.0
TERMINAL = ("DONE", "FAILED", "CANCELLED", "QUARANTINED")


def jobs_for(seconds: int) -> int:
    """Timed jobs of a run (one more job warms the load-phase service up)."""
    return min(max(MIN_JOBS, JOBS_PER_SECOND * seconds), inputs.SERVICE_POOL - 1)


class ServeProcess:
    """One ``repro serve`` subprocess on a fresh root inside the checkout."""

    def __init__(self) -> None:
        self.root = work_root("serve-")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
        )
        self._log = open(self.root / "serve.log", "wb")
        command = [sys.executable, "-m", "repro", "serve", "--root",
                   str(self.root), "--workers", str(WORKERS)]
        self.client = ServiceClient(self.root / "service.sock")
        start = time.perf_counter()
        self.process = subprocess.Popen(
            command, cwd=REPO_ROOT, env=env, stdout=self._log,
            stderr=subprocess.STDOUT,
        )
        deadline = start + READY_TIMEOUT_S
        while not self.client.alive():
            if self.process.poll() is not None or time.perf_counter() > deadline:
                self.stop()
                raise RuntimeError(f"repro serve did not come up: {self.log_tail()}")
            time.sleep(0.002)
        self.ready_s = time.perf_counter() - start

    def log_tail(self) -> str:
        self._log.flush()
        return (self.root / "serve.log").read_text(errors="replace")[-2000:]

    def stop(self) -> None:
        """SIGTERM (graceful drain), wait, and remove the root."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._log.close()
        shutil.rmtree(self.root, ignore_errors=True)
        try:
            self.root.parent.rmdir()  # the work dir, once nothing is left in it
        except OSError:
            pass


def round_trip(client: ServiceClient, job_seed: int) -> Dict[str, object]:
    """Submit one job, poll it to a terminal state, fetch its result."""
    scenario = inputs.service_scenario(job_seed).to_dict()
    start = time.perf_counter()
    submitted = client.submit(scenario)
    submit_end = time.perf_counter()
    job_id = submitted["job_id"]
    running_at: Optional[float] = None
    deadline = start + JOB_TIMEOUT_S
    while True:
        view = client.status(job_id)["job"]
        if view["state"] == "RUNNING" and running_at is None:
            running_at = view["updated_at"]
        if view["state"] in TERMINAL or time.perf_counter() > deadline:
            break
        time.sleep(POLL_S)
    result_start = time.perf_counter()
    fetched = client.result(job_id)
    end = time.perf_counter()
    record: Dict[str, object] = {
        "seed": job_seed,
        "round_trip_s": end - start,
        "disposition": submitted["disposition"],
        "state": view["state"],
        "attempts": int(view["attempts"]),
        "result": fetched.get("result"),
        "solve_s": (fetched.get("manifest") or {}).get("wall_s"),
        "submit_s": submit_end - start,
        "result_s": end - result_start,
    }
    if running_at is not None and view["state"] == "DONE":
        record["queue_wait_s"] = running_at - view["submitted_at"]
        record["run_s"] = view["updated_at"] - running_at
    return record


def job_problems(record: Dict[str, object], expected: dict) -> List[str]:
    """Why one job's round trip does not count as a correct operation."""
    if "error" in record:
        return [str(record["error"])]
    problems = []
    if record["state"] != "DONE":
        problems.append(f"state {record['state']}")
    if record["disposition"] != "new":
        problems.append(f"answered as {record['disposition']}, not solved")
    if record["attempts"] != 1:
        problems.append(f"{record['attempts']} attempts")
    problems += checks.mismatches(record["result"] or {}, expected)
    return problems


def _load(client: ServiceClient, seeds: List[int]) -> List[Dict[str, object]]:
    """Closed loop: each client sends its next job when the last returns."""
    records: List[Optional[Dict[str, object]]] = [None] * len(seeds)
    lock = threading.Lock()
    cursor = iter(range(len(seeds)))

    def drive() -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            try:
                records[index] = round_trip(client, seeds[index])
            except (ProtocolError, OSError, KeyError) as exc:
                records[index] = {"seed": seeds[index], "error": repr(exc)}

    threads = [threading.Thread(target=drive) for _ in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records


def _median(records, name: str) -> float:
    values = [r[name] for r in records if r.get(name) is not None]
    return percentile(values, 0.5) if values else 0.0


def run(seed: int, seconds: int, trace: bool) -> tuple:
    """Returns ``(outcome, metrics by name, report lines)``."""
    reference = checks.load_reference()["service"]
    n_jobs = jobs_for(seconds)
    seeds = inputs.service_job_seeds(seed, n_jobs + 1)
    outcome = Outcome()

    ServeProcess().stop()  # warm-up start: pyc compilation, page cache
    starts: List[float] = []
    service: Optional[ServeProcess] = None
    try:
        for index in range(TIMED_STARTS):
            service = ServeProcess()
            starts.append(service.ready_s)
            if index < TIMED_STARTS - 1:
                service.stop()
        warm = round_trip(service.client, seeds[0])
        outcome.record(
            f"service warm-up job {seeds[0]}",
            job_problems(warm, reference[str(seeds[0])]),
        )
        start = time.perf_counter()
        records = _load(service.client, seeds[1:])
        load_s = time.perf_counter() - start
        peak_rss = process_peak_rss_mb(service.process.pid)
    finally:
        if service is not None:
            service.stop()

    for record in records:
        outcome.record(
            f"service job {record['seed']}",
            job_problems(record, reference[str(record["seed"])]),
        )
    done = [r for r in records if r.get("state") == "DONE"]
    trips = [r["round_trip_s"] for r in done]
    p50, p90 = percentile(trips, 0.5), percentile(trips, 0.9)
    solves = [r["solve_s"] for r in done if r.get("solve_s")]
    lines = [
        f"service: {len(done)}/{len(records)} jobs DONE in {load_s:.2f} s, "
        f"round trip p50 {p50:.4f} s, p90 {p90:.4f} s "
        f"({count_beyond(trips, p90)} samples beyond p90), starts "
        f"{', '.join(f'{s:.3f}' for s in starts)} s",
    ]
    if not trace:
        # As measured.  Round trips and throughput are mostly waits on
        # the 50 ms tick, which host speed does not scale; the solves
        # run beside a second worker, which the host-speed kernel
        # (sampled outside the load) did not track.
        metrics = {
            "solve_s": statistics.median(solves),
            "job_s_p50": p50,
            "job_s_p90": p90,
            "throughput": len(done) / load_s,
            "setup_s": fastest(starts),
            "peak_rss_mb": peak_rss,
        }
        return outcome, metrics, lines

    split = [r for r in done if "run_s" in r]
    for record in split:
        record["worker_overhead_s"] = record["run_s"] - record["solve_s"]
        record["unattributed_s"] = record["round_trip_s"] - sum(
            record[name]
            for name in ("submit_s", "queue_wait_s", "run_s", "result_s")
        )
    metrics = {
        "service.round_trip_s": p50,
        "service.submit_s": _median(split, "submit_s"),
        "service.queue_wait_s": _median(split, "queue_wait_s"),
        "service.run_s": _median(split, "run_s"),
        "service.result_s": _median(split, "result_s"),
        "scenario.worker_solve_s": _median(split, "solve_s"),
        "service.worker_overhead_s": _median(split, "worker_overhead_s"),
        "service.attempts": sum(r["attempts"] for r in records if "attempts" in r),
        "unattributed_s": _median(split, "unattributed_s"),
        "unattributed_share": _median(split, "unattributed_s") / p50,
        # The split reads timestamps every round trip records anyway
        # (status view, run manifest), so traced and untraced runs do
        # identical work.
        "trace_overhead": 0.0,
    }
    outside = 1.0 - metrics["scenario.worker_solve_s"] / p50
    lines.append(
        f"  split over {len(split)} jobs: queue "
        f"{metrics['service.queue_wait_s']:.4f} s, "
        f"run {metrics['service.run_s']:.4f} s (solve "
        f"{metrics['scenario.worker_solve_s']:.4f} s), time outside the solve "
        f"{outside:.1%} of the round trip"
    )
    return outcome, metrics, lines
