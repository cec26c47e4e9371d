"""Scenario-job service units: WAL, job store, breaker, protocol, loop.

The subprocess-based crash tests live in ``tests/test_service_chaos.py``;
everything here runs in-process for speed.
"""

from __future__ import annotations

import dataclasses
import json
import pickle
import random

import pytest

from repro.obs import get_registry
from repro.scenario import ResultCache, Runner
from repro.service import (
    CircuitBreaker,
    JobState,
    JobStore,
    ProtocolError,
    RetryPolicy,
    ScenarioJobService,
    ServiceClient,
    WriteAheadLog,
)
from repro.service.protocol import parse_address
from repro.service.supervisor import scenario_class
from tests.chaos import make_scenario


# ---------------------------------------------------------------------------
# write-ahead log
# ---------------------------------------------------------------------------


def test_wal_append_replay_roundtrip(tmp_path):
    wal = WriteAheadLog(tmp_path / "wal", fsync=False)
    records = [{"type": "submit", "job_id": f"job-{i:06d}"} for i in range(5)]
    for record in records:
        wal.append(record)
    wal.close()

    report = WriteAheadLog(tmp_path / "wal", fsync=False).replay()
    assert [r["job_id"] for r in report.records] == [
        r["job_id"] for r in records
    ]
    assert all(r["wal_schema"] == 1 for r in report.records)
    assert report.corrupt_tail_segments == []
    assert report.dropped_bytes == 0


def test_wal_corrupt_tail_is_truncated_and_counted(tmp_path):
    wal = WriteAheadLog(tmp_path / "wal", fsync=False)
    wal.append({"type": "submit", "job_id": "job-000001"})
    wal.append({"type": "transition", "job_id": "job-000001"})
    wal.close()
    (segment,) = wal.segments()
    clean_size = segment.stat().st_size
    with open(segment, "ab") as handle:
        handle.write(b'{"type": "transi')  # torn write, no newline

    counter = get_registry().counter("service.wal.corrupt_tail")
    before = counter.value
    report = WriteAheadLog(tmp_path / "wal", fsync=False).replay()

    # Both committed records survive; only the torn tail is lost.
    assert [r["type"] for r in report.records] == ["submit", "transition"]
    assert [p.name for p in report.corrupt_tail_segments] == [segment.name]
    assert report.dropped_bytes == 16
    assert counter.value == before + 1
    # The repair is physical: the tail is gone from disk too.
    assert segment.stat().st_size == clean_size


def test_wal_garbage_mid_segment_drops_the_suffix(tmp_path):
    wal = WriteAheadLog(tmp_path / "wal", fsync=False)
    wal.append({"seq": 1})
    wal.close()
    (segment,) = wal.segments()
    with open(segment, "ab") as handle:
        handle.write(b"not json\n")
        handle.write(json.dumps({"seq": 2}).encode() + b"\n")

    report = WriteAheadLog(tmp_path / "wal", fsync=False).replay()
    # Replay is a prefix of history: nothing after the bad line is
    # trusted, even if it happens to decode.
    assert [r["seq"] for r in report.records] == [1]
    assert len(report.corrupt_tail_segments) == 1


def test_wal_rotation_compacts_to_live_records(tmp_path):
    wal = WriteAheadLog(tmp_path / "wal", fsync=False, rotate_after=4)
    for i in range(4):
        wal.append({"seq": i})
    assert wal.maybe_rotate(lambda: [{"seq": "live"}]) is not None
    segments = wal.segments()
    assert [s.name for s in segments] == ["wal-000002.jsonl"]
    report = WriteAheadLog(tmp_path / "wal", fsync=False).replay()
    assert [r["seq"] for r in report.records] == ["live"]


def test_wal_rotation_stays_amortised_past_rotate_after_jobs(tmp_path):
    """A job table larger than ``rotate_after`` must not make every
    transition rewrite the whole journal."""
    rotate_after, count = 64, 300
    store = JobStore(
        tmp_path, cache=_StubCache(), fsync=False, rotate_after=rotate_after
    )
    rotations = get_registry().counter("service.wal.rotations")
    before = rotations.value
    for i in range(count):
        scenario = make_scenario()
        scenario = dataclasses.replace(
            scenario,
            workload=dataclasses.replace(
                scenario.workload, source="generator", seed=i
            ),
        )
        job, disposition = store.submit(scenario)
        assert disposition == "new"
        store.transition(job.job_id, JobState.RUNNING, attempts=1)
        store.transition(job.job_id, JobState.DONE)
    # One compaction per max(rotate_after, live records) appends: at
    # most one per rotate_after of the 3 * count appends (re-compacting
    # on every append past rotate_after jobs would be hundreds).
    assert 1 <= rotations.value - before <= 3 * count // rotate_after
    live = {job_id: job.snapshot_record() for job_id, job in store.jobs.items()}
    store.close()

    reopened = JobStore(
        tmp_path, cache=_StubCache(), fsync=False, rotate_after=rotate_after
    )
    assert reopened.recovery.jobs == count
    assert {
        job_id: job.snapshot_record() for job_id, job in reopened.jobs.items()
    } == live
    reopened.close()


# ---------------------------------------------------------------------------
# job store: dedupe, transitions, recovery
# ---------------------------------------------------------------------------


class _StubCache:
    """Result cache stand-in: remembers hashes, no real results."""

    def __init__(self):
        self.results = {}

    def get(self, scenario):
        return self.results.get(scenario.content_hash())

    def manifest_path(self, scenario):  # pragma: no cover - protocol shim
        raise NotImplementedError


def test_submit_disposition_new_then_attached(tmp_path):
    store = JobStore(tmp_path, cache=_StubCache(), fsync=False)
    job, disposition = store.submit(make_scenario("a"))
    assert disposition == "new"
    assert job.state is JobState.PENDING

    # Labels differ but the physics is identical -> same content hash.
    twin, disposition = store.submit(make_scenario("b"))
    assert disposition == "attached"
    assert twin.job_id == job.job_id
    assert twin.attached == 1
    store.close()


def test_submit_disposition_cached_needs_a_cache_hit(tmp_path):
    cache = _StubCache()
    store = JobStore(tmp_path, cache=cache, fsync=False)
    job, _ = store.submit(make_scenario("a"))
    store.transition(job.job_id, JobState.RUNNING, attempts=1)
    store.transition(job.job_id, JobState.DONE)

    # DONE twin but the cache entry is gone: a fresh job, not "cached".
    rerun, disposition = store.submit(make_scenario("b"))
    assert disposition == "new"
    assert rerun.job_id != job.job_id
    store.transition(rerun.job_id, JobState.CANCELLED)

    cache.results[job.content_hash] = object()
    _, disposition = store.submit(make_scenario("c"))
    assert disposition == "cached"
    store.close()


def test_terminal_states_are_never_left(tmp_path):
    store = JobStore(tmp_path, cache=_StubCache(), fsync=False)
    job, _ = store.submit(make_scenario())
    store.transition(job.job_id, JobState.CANCELLED)
    with pytest.raises(ValueError):
        store.transition(job.job_id, JobState.RUNNING)
    store.close()


def test_recovery_replays_and_requeues_running_jobs(tmp_path):
    store = JobStore(tmp_path, cache=_StubCache(), fsync=False)
    running, _ = store.submit(make_scenario("running", "database"))
    store.transition(running.job_id, JobState.RUNNING, attempts=1)
    done, _ = store.submit(make_scenario("done", "web"))
    store.transition(done.job_id, JobState.RUNNING, attempts=1)
    store.transition(done.job_id, JobState.DONE)
    # No close(): simulate the process dying with the WAL handle open.

    reopened = JobStore(tmp_path, cache=_StubCache(), fsync=False)
    assert reopened.recovery.jobs == 2
    assert reopened.recovery.requeued == 1
    assert reopened.jobs[running.job_id].state is JobState.PENDING
    assert reopened.jobs[running.job_id].attempts == 1
    assert reopened.jobs[done.job_id].state is JobState.DONE
    # Dedupe maps are rebuilt: the requeued twin attaches, not re-runs.
    _, disposition = reopened.submit(make_scenario("twin", "database"))
    assert disposition == "attached"
    # Fresh ids keep counting from the recovered sequence.
    fresh, _ = reopened.submit(make_scenario("fresh", "multimedia"))
    assert fresh.job_id == "job-000003"
    reopened.close()


def test_recovery_survives_a_torn_wal_tail(tmp_path):
    store = JobStore(tmp_path, cache=_StubCache(), fsync=False)
    job, _ = store.submit(make_scenario())
    store.transition(job.job_id, JobState.RUNNING, attempts=1)
    (segment,) = store.wal.segments()
    with open(segment, "ab") as handle:
        handle.write(b'{"type": "transition", "state": "DO')

    reopened = JobStore(tmp_path, cache=_StubCache(), fsync=False)
    # The torn DONE never committed, so the job is (correctly) requeued.
    assert reopened.recovery.corrupt_tail_segments == 1
    assert reopened.recovery.dropped_bytes > 0
    assert reopened.jobs[job.job_id].state is JobState.PENDING
    reopened.close()


# ---------------------------------------------------------------------------
# retry policy and circuit breaker
# ---------------------------------------------------------------------------


def test_retry_delay_grows_and_respects_cap():
    policy = RetryPolicy(retries=3, backoff_s=1.0, cap_s=4.0, jitter=0.0)
    assert policy.max_attempts == 4
    assert [policy.delay(a) for a in (1, 2, 3, 4)] == [1.0, 2.0, 4.0, 4.0]


def test_retry_delay_jitter_spreads_but_stays_bounded():
    policy = RetryPolicy(retries=2, backoff_s=1.0, cap_s=30.0, jitter=0.5)
    rng = random.Random(42)
    delays = {policy.delay(2, rng) for _ in range(50)}
    assert len(delays) > 1  # actually jittered
    assert all(1.0 <= d <= 3.0 for d in delays)  # base 2.0 +/- 50 %


def test_breaker_opens_cools_down_and_probes():
    breaker = CircuitBreaker(death_threshold=2, cooldown_s=10.0)
    assert breaker.allow("k", now=0.0)
    breaker.record_death("k", now=0.0)
    assert breaker.state("k") == "closed"  # one death is tolerated
    breaker.record_death("k", now=1.0)
    assert breaker.state("k") == "open"
    assert not breaker.allow("k", now=5.0)

    # Cooldown elapses: exactly one half-open probe is admitted.
    assert breaker.allow("k", now=12.0)
    assert breaker.state("k") == "half-open"
    assert not breaker.allow("k", now=12.0)

    # A dying probe reopens immediately (no second grace period).
    breaker.record_death("k", now=12.5)
    assert breaker.state("k") == "open"
    assert not breaker.allow("k", now=13.0)

    # A succeeding probe closes the circuit for good.
    assert breaker.allow("k", now=23.0)
    breaker.record_success("k")
    assert breaker.state("k") == "closed"
    assert breaker.allow("k", now=23.1)
    assert breaker.snapshot() == {}


def test_scenario_class_groups_by_family():
    a = make_scenario("a", "database")
    b = make_scenario("b", "web")
    assert scenario_class(a) == scenario_class(b) == "LC_FUZZY/auto/2t-liquid"


# ---------------------------------------------------------------------------
# protocol
# ---------------------------------------------------------------------------


def test_parse_address_tcp_vs_path(tmp_path):
    assert parse_address("127.0.0.1:9000") == ("127.0.0.1", 9000)
    assert parse_address(":9000") == ("127.0.0.1", 9000)
    sock = tmp_path / "x:y" / "service.sock"
    assert parse_address(str(sock)) == sock
    assert parse_address("service.sock").name == "service.sock"


# ---------------------------------------------------------------------------
# full service loop (in-process, background thread)
# ---------------------------------------------------------------------------


@pytest.fixture()
def service(tmp_path):
    svc = ScenarioJobService(
        tmp_path / "svc",
        max_workers=1,
        retry=RetryPolicy(retries=1, backoff_s=0.01),
        fsync=False,
        poll_interval_s=0.02,
        drain_timeout_s=10.0,
    )
    svc.start_background()
    yield svc
    svc.stop_background()


def test_service_submit_runs_to_done_with_result(service):
    client = ServiceClient(service.address)
    accepted = client.submit(make_scenario("svc-e2e").to_dict())
    assert accepted["disposition"] == "new"
    job = client.wait_for(accepted["job_id"], timeout=120.0)
    assert job["state"] == "DONE"
    assert job["attempts"] == 1

    payload = client.result(accepted["job_id"])
    assert payload["result"]["policy"] == "LC_FUZZY"
    assert payload["result"]["peak_temperature_c"] > 20.0
    assert payload["manifest"]["cached"] is False

    # Identical physics resubmitted: answered from the cache, no solve.
    again = client.submit(make_scenario("svc-e2e-again").to_dict())
    assert again["disposition"] == "cached"
    assert again["job_id"] == accepted["job_id"]

    health = client.health()
    assert health["status"] == "ok"
    assert health["counts"]["DONE"] == 1


def test_service_cancel_pending_job(service, monkeypatch):
    monkeypatch.setenv("REPRO_SERVICE_TEST_DELAY_S", "5.0")
    client = ServiceClient(service.address)
    first = client.submit(make_scenario("c1", "database").to_dict())
    second = client.submit(make_scenario("c2", "web").to_dict())
    # One worker, the first job holds it for seconds: cancel the queued
    # one, then the running one.
    cancelled = client.cancel(second["job_id"])["job"]
    assert cancelled["state"] == "CANCELLED"
    cancelled = client.cancel(first["job_id"])["job"]
    assert cancelled["state"] == "CANCELLED"
    with pytest.raises(ProtocolError, match="already CANCELLED"):
        client.cancel(first["job_id"])


def test_service_rejects_malformed_requests(service):
    client = ServiceClient(service.address)
    with pytest.raises(ProtocolError, match="unknown op"):
        client.request({"op": "frobnicate"})
    with pytest.raises(ProtocolError, match="no such job"):
        client.status("job-999999")
    with pytest.raises(ProtocolError, match="workload"):
        client.request({"op": "submit", "scenario": {"workload": "nope"}})


def test_worker_result_lands_in_shared_cache(service):
    client = ServiceClient(service.address)
    scenario = make_scenario("cache-visible")
    accepted = client.submit(scenario.to_dict())
    client.wait_for(accepted["job_id"], timeout=120.0)

    # The worker wrote through the service's ResultCache: the same
    # scenario solved locally is now a pure cache hit.
    cache = ResultCache(service.root / "cache")
    result = cache.get(scenario)
    assert result is not None
    assert result.peak_temperature_c > 20.0
    runner = Runner(scenario, cache=cache)
    runner.run()
    assert runner.last_manifest["cached"] is True


def test_service_gauges_track_queue_wal_and_workers(service, monkeypatch):
    """The live gauges follow the supervisor's state every tick."""
    import time as _time

    monkeypatch.setenv("REPRO_SERVICE_TEST_DELAY_S", "0.4")
    client = ServiceClient(service.address)
    first = client.submit(make_scenario("g1", "database").to_dict())
    client.submit(make_scenario("g2", "web").to_dict())

    registry = get_registry()
    saw_depth = saw_worker = False
    deadline = _time.monotonic() + 30.0
    while _time.monotonic() < deadline and not (saw_depth and saw_worker):
        saw_depth |= registry.gauge("service.queue.depth").value >= 1.0
        saw_worker |= registry.gauge("service.workers.alive").value >= 1.0
        _time.sleep(0.02)
    assert saw_depth, "queue-depth gauge never saw the queued job"
    assert saw_worker, "workers-alive gauge never saw the busy worker"
    # The WAL gauge tracks journal growth from the submit records on.
    assert registry.gauge("service.wal.bytes").value > 0
    client.wait_for(first["job_id"], timeout=120.0)


def test_wal_records_are_pickle_free_json(tmp_path):
    """The journal must stay greppable plain text (ops requirement)."""
    store = JobStore(tmp_path, cache=_StubCache(), fsync=False)
    job, _ = store.submit(make_scenario())
    store.transition(job.job_id, JobState.RUNNING, attempts=1)
    store.close()
    for segment in store.wal.segments():
        for line in segment.read_bytes().splitlines():
            record = json.loads(line)  # raises if not JSON
            with pytest.raises(Exception):
                pickle.loads(line)
            assert record["wal_schema"] == 1
