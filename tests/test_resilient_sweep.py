"""Resilient fan-out: isolation of raising, crashing and hanging jobs.

Worker functions live at module level so the process-pool paths can
pickle them.  The crash test kills its worker with ``os._exit`` — the
closest portable stand-in for a segfault or OOM kill.
"""

from __future__ import annotations

import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.analysis import (
    SweepOutcome,
    jittered_delay,
    resilient_fan_out,
    run_simulations_resilient,
)
from repro.obs import capture_telemetry, get_registry, get_tracer
from repro.scenario import (
    FaultSpec,
    PolicySpec,
    Scenario,
    SensorFaultSpec,
    SolverSpec,
    WorkloadSpec,
)


def _square(x: int) -> int:
    return x * x


def _fail_on_three(x: int) -> int:
    if x == 3:
        raise ValueError(f"bad item {x}")
    return x * x


def _exit_on_three(x: int) -> int:
    if x == 3:
        os._exit(13)  # kills the worker process outright
    return x * x


def _hang_on_three(x: int) -> int:
    if x == 3:
        time.sleep(60.0)
    return x * x


def _flaky_once(arg) -> int:
    marker, x = arg
    path = Path(marker)
    if not path.exists():
        path.write_text("tried")
        raise RuntimeError("transient failure")
    return x


def _count_runs(arg) -> int:
    directory, x = arg
    marker = Path(directory) / f"ran-{x}.txt"
    count = int(marker.read_text()) if marker.exists() else 0
    marker.write_text(str(count + 1))
    if x == 2 and count == 0:
        raise RuntimeError("fails on its first ever attempt")
    return x


def _interrupt_on_three(arg) -> int:
    directory, x = arg
    marker = Path(directory) / f"ran-{x}.txt"
    count = int(marker.read_text()) if marker.exists() else 0
    marker.write_text(str(count + 1))
    if x == 3 and count == 0:
        raise KeyboardInterrupt()  # Ctrl-C mid-grid, first pass only
    return x * x


# ---------------------------------------------------------------------------
# basic contracts
# ---------------------------------------------------------------------------


def test_all_jobs_succeed_serial_matches_fan_out():
    outcome = resilient_fan_out(_square, range(5))
    assert isinstance(outcome, SweepOutcome)
    assert outcome.complete
    assert outcome.succeeded == outcome.total == 5
    assert outcome.results == [(i, i * i) for i in range(5)]
    assert outcome.raise_if_failed() is outcome


def test_keys_must_match_items():
    with pytest.raises(ValueError):
        resilient_fan_out(_square, range(3), keys=["only-one"])
    with pytest.raises(ValueError):
        resilient_fan_out(_square, range(3), retries=-1)


def test_raising_job_is_isolated_serial():
    outcome = resilient_fan_out(_fail_on_three, range(6), retries=1)
    assert not outcome.complete
    assert outcome.succeeded == 5
    assert sorted(value for _, value in outcome.results) == [0, 1, 4, 16, 25]
    (failure,) = outcome.failures
    assert failure.key == 3
    assert failure.phase == "exception"
    assert failure.error_type == "ValueError"
    assert failure.attempts == 2  # first try + one retry
    assert "bad item 3" in failure.traceback
    with pytest.raises(RuntimeError):
        outcome.raise_if_failed()


def test_raising_job_is_isolated_in_process_pool():
    outcome = resilient_fan_out(
        _fail_on_three, range(6), processes=2, retries=0
    )
    assert outcome.succeeded == 5
    (failure,) = outcome.failures
    assert failure.phase == "exception"
    assert failure.error_type == "ValueError"


def test_retry_rescues_a_transient_failure(tmp_path):
    marker = tmp_path / "first-attempt"
    outcome = resilient_fan_out(_flaky_once, [(str(marker), 7)], retries=1)
    assert outcome.complete
    assert outcome.results == [(0, 7)]


# ---------------------------------------------------------------------------
# worker death and hangs (acceptance: losing a worker loses one job)
# ---------------------------------------------------------------------------


def test_dying_worker_loses_only_its_own_job():
    outcome = resilient_fan_out(
        _exit_on_three, range(6), processes=2, retries=1
    )
    assert outcome.succeeded == 5
    assert outcome.result_map() == {
        i: i * i for i in range(6) if i != 3
    }
    (failure,) = outcome.failures
    assert failure.key == 3
    assert failure.phase == "worker-crash"
    assert failure.error_type == "BrokenProcessPool"


def test_hanging_job_times_out_while_siblings_complete():
    outcome = resilient_fan_out(
        _hang_on_three, range(5), processes=2, timeout_s=1.5, retries=0
    )
    assert outcome.succeeded == 4
    (failure,) = outcome.failures
    assert failure.key == 3
    assert failure.phase == "timeout"
    assert failure.error_type == "TimeoutError"


# ---------------------------------------------------------------------------
# checkpoint / resume
# ---------------------------------------------------------------------------


def test_checkpoint_resume_skips_completed_jobs(tmp_path):
    checkpoint = tmp_path / "sweep.ckpt"
    jobs = [(str(tmp_path), x) for x in range(4)]

    first = resilient_fan_out(
        _count_runs, jobs, retries=0, checkpoint_path=checkpoint
    )
    assert first.succeeded == 3
    assert [f.key for f in first.failures] == [2]
    assert checkpoint.exists()

    second = resilient_fan_out(
        _count_runs, jobs, retries=0, checkpoint_path=checkpoint
    )
    assert second.complete
    assert sorted(value for _, value in second.results) == [0, 1, 2, 3]
    # Only the previously failed job was re-executed on resume.
    runs = {
        x: int((tmp_path / f"ran-{x}.txt").read_text()) for x in range(4)
    }
    assert runs == {0: 1, 1: 1, 2: 2, 3: 1}


def test_corrupt_checkpoint_is_a_counted_fresh_start(tmp_path):
    checkpoint = tmp_path / "sweep.ckpt"
    checkpoint.write_bytes(b"\x80\x04 definitely not a pickle")
    counter = get_registry().counter("sweep.checkpoint_corrupt")
    before = counter.value

    outcome = resilient_fan_out(
        _square, range(4), checkpoint_path=checkpoint
    )
    # Degrades to recomputation, never to a crash -- and not silently.
    assert outcome.complete
    assert counter.value == before + 1

    # The finished sweep overwrote the damage with a loadable file.
    payload = pickle.loads(checkpoint.read_bytes())
    assert payload["total"] == 4


def test_unpicklable_garbage_checkpoint_also_counts(tmp_path):
    checkpoint = tmp_path / "sweep.ckpt"
    checkpoint.write_bytes(pickle.dumps(["not", "a", "dict"]))
    counter = get_registry().counter("sweep.checkpoint_corrupt")
    before = counter.value
    outcome = resilient_fan_out(
        _square, range(2), checkpoint_path=checkpoint
    )
    assert outcome.complete
    assert counter.value == before + 1


def test_keyboard_interrupt_leaves_loadable_checkpoint(tmp_path):
    checkpoint = tmp_path / "sweep.ckpt"
    jobs = [(str(tmp_path), x) for x in range(6)]

    # checkpoint_every is huge: the only save is the interrupt flush.
    with pytest.raises(KeyboardInterrupt):
        resilient_fan_out(
            _interrupt_on_three,
            jobs,
            retries=0,
            checkpoint_path=checkpoint,
            checkpoint_every=1000,
        )
    payload = pickle.loads(checkpoint.read_bytes())
    assert sorted(payload["results"]) == [0, 1, 2]  # finished pre-Ctrl-C

    outcome = resilient_fan_out(
        _interrupt_on_three, jobs, retries=0, checkpoint_path=checkpoint
    )
    assert outcome.complete
    assert outcome.results == [(i, i * i) for i in range(6)]
    # The resumed run re-solved nothing that already finished.
    runs = {
        x: int((tmp_path / f"ran-{x}.txt").read_text()) for x in range(6)
    }
    assert runs == {0: 1, 1: 1, 2: 1, 3: 2, 4: 1, 5: 1}


_SIGTERM_SWEEP_SCRIPT = """
import signal, sys
from pathlib import Path
from repro.analysis import resilient_fan_out

# Graceful-shutdown convention: SIGTERM raises SystemExit, which the
# sweep's finally-flush turns into a durable checkpoint.
signal.signal(signal.SIGTERM, lambda *a: sys.exit(143))

directory = sys.argv[1]

def job(x):
    import time
    marker = Path(directory) / f"ran-{x}.txt"
    count = int(marker.read_text()) if marker.exists() else 0
    marker.write_text(str(count + 1))
    if x >= 2:
        time.sleep(30.0)  # slow tail the parent will interrupt
    return x

resilient_fan_out(
    job,
    range(5),
    retries=0,
    checkpoint_path=Path(directory) / "sweep.ckpt",
    checkpoint_every=1000,
)
"""


def test_sigterm_mid_sweep_leaves_loadable_checkpoint(tmp_path):
    checkpoint = tmp_path / "sweep.ckpt"
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p
    )
    process = subprocess.Popen(
        [sys.executable, "-c", _SIGTERM_SWEEP_SCRIPT, str(tmp_path)],
        env=env,
    )
    try:
        deadline = time.monotonic() + 60.0
        while not (tmp_path / "ran-2.txt").exists():
            assert process.poll() is None, "sweep died before the SIGTERM"
            assert time.monotonic() < deadline
            time.sleep(0.05)
        process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=30) == 143
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=30)

    # Jobs 0 and 1 completed before the interrupt and were flushed.
    payload = pickle.loads(checkpoint.read_bytes())
    assert sorted(payload["results"]) == [0, 1]
    assert payload["total"] == 5

    # Resume in-process: the slow sleep only guarded the first pass...
    jobs = [(str(tmp_path), x) for x in range(5)]
    outcome = resilient_fan_out(
        _count_runs, jobs, retries=0, checkpoint_path=checkpoint
    )
    # ...and the finished jobs were not re-solved (still one run each).
    assert outcome.complete
    runs = {
        x: int((tmp_path / f"ran-{x}.txt").read_text()) for x in range(5)
    }
    assert runs[0] == 1 and runs[1] == 1


# ---------------------------------------------------------------------------
# retry backoff jitter
# ---------------------------------------------------------------------------


def test_jittered_delay_bounds_and_cap():
    assert jittered_delay(0.0, 5) == 0.0
    assert jittered_delay(1.0, 3, jitter=0.0) == 4.0
    assert jittered_delay(1.0, 10, cap_s=8.0, jitter=0.0) == 8.0
    samples = {jittered_delay(1.0, 2, jitter=0.5) for _ in range(50)}
    assert len(samples) > 1
    assert all(1.0 <= s <= 3.0 for s in samples)


def test_backoff_jitter_never_goes_negative():
    import random

    rng = random.Random(7)
    assert all(
        jittered_delay(0.01, 1, jitter=1.0, rng=rng) >= 0.0
        for _ in range(200)
    )


def test_checkpoint_with_wrong_total_is_ignored(tmp_path):
    checkpoint = tmp_path / "stale.ckpt"
    resilient_fan_out(_square, range(3), checkpoint_path=checkpoint)
    outcome = resilient_fan_out(
        _square, range(5), checkpoint_path=checkpoint
    )
    assert outcome.complete
    assert outcome.total == 5


# ---------------------------------------------------------------------------
# simulation-job wrapper
# ---------------------------------------------------------------------------


def _job(label: str, **overrides) -> Scenario:
    """A short 2-tier LC_LB run on the coarse grid."""
    return Scenario(
        workload=WorkloadSpec(name="web", duration=2),
        policy=PolicySpec(name="LC_LB"),
        solver=SolverSpec(nx=12, ny=10),
        label=label,
        **overrides,
    )


def test_bad_simulation_job_fails_while_sibling_completes():
    # A dead sensor on a block the stack lacks: the simulator rejects
    # it when it installs the fault, which must surface as a JobFailure.
    missing = SensorFaultSpec(kind="dead", layer="tier0_die", block="core99")
    jobs = [
        _job("good"),
        _job("bad", faults=FaultSpec(sensors=(missing,))),
    ]
    outcome = run_simulations_resilient(jobs, retries=0)
    assert outcome.succeeded == 1
    result_map = outcome.result_map()
    assert result_map["good"].peak_temperature_c > 0.0
    (failure,) = outcome.failures
    assert failure.key == "bad"
    assert failure.phase == "exception"
    assert failure.error_type == "KeyError"


def test_resumed_capture_tuple_unwraps_with_no_sink(tmp_path):
    # A checkpoint written by an earlier traced parallel run holds
    # (result, telemetry) tuples; resuming it untraced must still hand
    # back the bare results and merge the worker's metric delta.
    payload: dict = {}
    with capture_telemetry(payload):
        with get_tracer().span("worker.step"):
            get_registry().counter("test.resumed_capture").inc()
    checkpoint = tmp_path / "sweep.ckpt"
    checkpoint.write_bytes(
        pickle.dumps({"results": {0: ("done", payload)}, "total": 1})
    )
    job = _job("resumed")
    counter = get_registry().counter("test.resumed_capture")
    before = counter.value
    assert not get_tracer().has_sinks
    outcome = run_simulations_resilient([job], checkpoint_path=checkpoint)
    assert outcome.complete
    assert outcome.result_map() == {"resumed": "done"}
    assert counter.value == before + 1
