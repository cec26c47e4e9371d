"""Live observability plane: trace stitching, metrics ring, watchdog.

Unit coverage for :mod:`repro.obs.live` plus the chaos-style
end-to-end acceptance test: submit jobs, scrape live metrics mid-run,
then render every job's stitched client -> queue -> worker span tree
and gate on the benchmark trajectory.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.analysis.perf import append_history, read_history
from repro.cli import main
from repro.obs import (
    MemorySink,
    MetricsRegistry,
    MetricsRing,
    PerfWatchdog,
    SamplingProfiler,
    TraceContext,
    annotate_records,
    check_bench_history,
    get_registry,
    get_tracer,
    json_safe_snapshot,
    record_job_id,
    render_prometheus,
)
from repro.service import RetryPolicy, ScenarioJobService, ServiceClient
from tests.chaos import make_scenario


@pytest.fixture(autouse=True)
def _pristine_tracer():
    """Every test starts dark and leaves the global tracer dark."""
    tracer = get_tracer()
    assert not tracer.has_sinks
    yield
    tracer._sinks.clear()
    tracer.enabled = True


# ---------------------------------------------------------------------------
# trace context
# ---------------------------------------------------------------------------


def test_trace_context_wire_roundtrip():
    context = TraceContext.mint()
    assert len(context.trace_id) == 16
    wire = context.to_wire()
    back = TraceContext.from_wire(wire)
    assert back is not None
    assert back.trace_id == context.trace_id
    assert back.client_t0 == pytest.approx(context.client_t0)


def test_trace_context_rejects_malformed_wire():
    assert TraceContext.from_wire(None) is None
    assert TraceContext.from_wire("abc") is None
    assert TraceContext.from_wire({}) is None
    assert TraceContext.from_wire({"client_t0": 1.0}) is None
    # A trace id without a clock is still a usable context.
    bare = TraceContext.from_wire({"trace_id": "t1", "client_t0": "bad"})
    assert bare is not None and bare.client_t0 is None


def test_annotate_records_stamps_without_mutating():
    records = [{"kind": "span", "name": "a"}]
    stamped = annotate_records(records, job_id="job-1", trace_id="t1")
    assert stamped[0]["job_id"] == "job-1"
    assert stamped[0]["trace_id"] == "t1"
    assert "job_id" not in records[0]
    assert record_job_id(stamped[0]) == "job-1"
    assert record_job_id({"attrs": {"job_id": "job-2"}}) == "job-2"
    assert record_job_id({"name": "x"}) is None


# ---------------------------------------------------------------------------
# metrics ring + exposition
# ---------------------------------------------------------------------------


def _local_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("obs.ring.ticks").inc(3)
    registry.gauge("service.queue.depth").set(2.0)
    return registry


def test_ring_eviction_counts_unflushed_samples():
    registry = _local_registry()
    ring = MetricsRing(capacity=3, interval_s=0.0)
    for _ in range(5):
        ring.sample(registry)
    assert len(ring) == 3
    # Two samples fell off the head before any flush happened.
    assert ring.evicted_unflushed == 2
    assert [s["seq"] for s in ring.window()] == [3, 4, 5]
    assert [s["seq"] for s in ring.window(last=2)] == [4, 5]


def test_ring_flush_appends_only_new_samples(tmp_path):
    registry = _local_registry()
    ring = MetricsRing(capacity=8, interval_s=0.0)
    path = tmp_path / "metrics.jsonl"
    ring.sample(registry)
    ring.sample(registry)
    assert ring.flush(path) == 2
    assert ring.flush(path) == 0  # idempotent: nothing new
    ring.sample(registry)
    assert ring.flush(path) == 1

    lines = [json.loads(l) for l in path.read_text().splitlines()]
    assert [l["seq"] for l in lines] == [1, 2, 3]
    assert all(l["type"] == "metrics_sample" for l in lines)
    # Flushed samples never evict-count afterwards.
    for _ in range(20):
        ring.sample(registry)
    flushed_before = ring.evicted_unflushed
    assert flushed_before > 0  # unflushed tail did evict
    ring.flush(path)
    ring.sample(registry)
    assert ring.evicted_unflushed == flushed_before


def test_json_safe_snapshot_nulls_untouched_histogram_bounds():
    registry = MetricsRegistry()
    registry.histogram("solve.wall_s")  # untouched: min=inf, max=-inf
    safe = json_safe_snapshot(registry)
    assert safe["solve.wall_s"]["min"] is None
    assert safe["solve.wall_s"]["max"] is None
    json.dumps(safe)  # strict-JSON loadable


def test_render_prometheus_text_exposition():
    registry = MetricsRegistry()
    registry.counter("service.jobs.done").inc(4)
    registry.gauge("service.queue.depth").set(1.0)
    hist = registry.histogram("service.solve.wall_s.direct")
    hist.observe(0.5)
    hist.observe(1.5)
    text = render_prometheus(registry.snapshot())
    assert "# TYPE repro_service_jobs_done_total counter" in text
    assert "repro_service_jobs_done_total 4" in text
    assert "repro_service_queue_depth 1" in text
    assert "repro_service_solve_wall_s_direct_count 2" in text
    assert "repro_service_solve_wall_s_direct_sum 2" in text


# ---------------------------------------------------------------------------
# sampling profiler
# ---------------------------------------------------------------------------


def _spin(deadline_s: float = 0.4) -> float:
    total = 0.0
    end = time.monotonic() + deadline_s
    while time.monotonic() < end:
        total += sum(i * i for i in range(200))
    return total


@pytest.mark.skipif(
    not SamplingProfiler.available(), reason="no signal-based profiling here"
)
def test_profiler_collapsed_stacks_and_hot_frames(tmp_path):
    profiler = SamplingProfiler(interval_s=0.002)
    with profiler:
        _spin()
    assert profiler.total_samples > 0
    collapsed = profiler.collapsed()
    assert collapsed and all(" " in line for line in collapsed)
    stack, count = collapsed[0].rsplit(" ", 1)
    assert int(count) >= 1 and ";" in stack
    hot = profiler.hot_frames(3)
    assert hot and hot[0]["share"] <= 1.0
    assert any("_spin" in frame["frame"] for frame in hot)
    out = profiler.write(tmp_path / "profile.collapsed")
    assert out.read_text().strip()


# ---------------------------------------------------------------------------
# perf watchdog + bench-history check
# ---------------------------------------------------------------------------


def test_watchdog_regression_is_edge_triggered():
    sink = MemorySink()
    tracer = get_tracer()
    tracer.add_sink(sink)
    try:
        dog = PerfWatchdog(threshold=1.5, min_samples=3, window=4)
        for _ in range(3):  # warmup -> baseline 1.0
            assert dog.observe("direct", 1.0) is None
        event = None
        for _ in range(4):  # sustained 3x regression
            event = dog.observe("direct", 3.0) or event
        assert event is not None and event["ratio"] > 1.5
        assert dog.snapshot()["direct"]["state"] == "regressing"
        regression_events = [
            r for r in sink.records if r.get("name") == "perf.regression"
        ]
        assert len(regression_events) == 1  # no spam while sustained
        for _ in range(8):  # recovery re-arms the edge
            dog.observe("direct", 1.0)
        assert dog.snapshot()["direct"]["state"] == "ok"
        dog.observe("direct", 50.0)
        dog.observe("direct", 50.0)
        regression_events = [
            r for r in sink.records if r.get("name") == "perf.regression"
        ]
        assert len(regression_events) == 2
    finally:
        tracer.remove_sink(sink)


def test_check_bench_history_flags_only_real_regressions():
    entries = [
        {"t": i, "results": {"steady_ms": 10.0 + i, "speedup_x": 3.0}}
        for i in range(5)
    ]
    ok = check_bench_history(entries)
    assert ok["checked"] == 1 and not ok["regressions"]

    entries.append({"t": 9, "results": {"steady_ms": 40.0, "speedup_x": 0.1}})
    bad = check_bench_history(entries)
    # steady_ms blew past 1.5x its median; the *_x ratio is exempt.
    assert set(bad["regressions"]) == {"steady_ms"}
    assert bad["regressions"]["steady_ms"]["ratio"] > 1.5


def test_check_bench_history_needs_two_entries():
    report = check_bench_history([{"results": {"a": 1.0}}])
    assert report["checked"] == 0
    assert report["skipped"]


def test_check_bench_history_ignores_retired_metrics(tmp_path, capsys):
    """A metric that earlier runs wrote and the newest run no longer
    writes (its benchmark was deleted) is neither checked nor flagged."""
    entries = [
        {"t": i, "results": {"steady_ms": 10.0, "retired_s": 0.1 * (i + 1)}}
        for i in range(3)
    ]
    entries.append({"t": 3, "results": {"steady_ms": 10.5}})
    report = check_bench_history(entries)
    assert report["checked"] == 1
    assert not report["regressions"]
    assert not any("retired_s" in reason for reason in report["skipped"])

    path = tmp_path / "history.jsonl"
    for entry in entries:
        append_history(entry["results"], path=path)
    assert main(["report", "bench", str(path), "--check"]) == 0
    assert "bench check passed" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# bench history file + `repro report bench --check`
# ---------------------------------------------------------------------------


def test_append_history_and_cli_bench_check(tmp_path, capsys):
    path = tmp_path / "history.jsonl"
    for i in range(3):
        append_history(
            {"steady_ms": 10.0 + i, "transient_ms": 100.0}, path=path
        )
    entries = read_history(path)
    assert len(entries) == 3
    assert all("t" in e and "version" in e for e in entries)

    assert main(["report", "bench", str(path), "--check"]) == 0
    out = capsys.readouterr().out
    assert "bench check passed" in out

    append_history({"steady_ms": 99.0, "transient_ms": 100.0}, path=path)
    assert main(["report", "bench", str(path), "--check"]) == 1
    out = capsys.readouterr().out
    assert "PERF REGRESSION: steady_ms" in out


def test_read_history_skips_garbage_lines(tmp_path):
    path = tmp_path / "history.jsonl"
    append_history({"a": 1.0}, path=path)
    with open(path, "a") as handle:
        handle.write("{torn\n")
    append_history({"a": 2.0}, path=path)
    assert [e["results"]["a"] for e in read_history(path)] == [1.0, 2.0]


# ---------------------------------------------------------------------------
# end-to-end: live service with stitched traces (acceptance test)
# ---------------------------------------------------------------------------


@pytest.fixture()
def live_service(tmp_path):
    svc = ScenarioJobService(
        tmp_path / "svc",
        max_workers=1,
        retry=RetryPolicy(retries=1, backoff_s=0.01),
        fsync=False,
        poll_interval_s=0.02,
        drain_timeout_s=10.0,
        metrics_interval_s=0.05,
        metrics_flush_every=2,
    )
    svc.start_background()
    yield svc
    svc.stop_background()


def test_live_service_stitched_traces_and_metrics(
    live_service, monkeypatch, capsys
):
    """Submit N jobs -> scrape metrics mid-run -> stitched trace per job."""
    monkeypatch.setenv("REPRO_SERVICE_TEST_DELAY_S", "0.4")
    client = ServiceClient(live_service.address)

    # The registry is process-global: earlier in-process service tests
    # may already have observed solve latencies.  Assert the *delta*.
    before = {
        name: entry["count"]
        for name, entry in get_registry().snapshot().items()
        if name.startswith("service.solve.wall_s.")
    }

    submissions = []
    for label, workload in (("live-a", "database"), ("live-b", "web")):
        context = TraceContext.mint()
        accepted = client.submit(
            make_scenario(label, workload).to_dict(),
            trace=context.to_wire(),
        )
        assert accepted["trace_id"] == context.trace_id
        submissions.append((accepted["job_id"], context.trace_id))

    # One worker, two jobs with a 0.4 s chaos delay: mid-run the queue
    # holds the second job and the gauges must say so.
    saw_depth = False
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        snap = client.metrics(window=10)
        depth = snap["metrics"].get("service.queue.depth", {})
        if depth.get("value", 0.0) >= 1.0:
            saw_depth = True
            break
        time.sleep(0.02)
    assert saw_depth, "queue depth gauge never went nonzero mid-run"

    for job_id, _ in submissions:
        job = client.wait_for(job_id, timeout=180.0)
        assert job["state"] == "DONE"

    # Per-backend solve latency histograms are live on the metrics verb.
    snap = client.metrics(window=10)
    latency = {
        name: entry
        for name, entry in snap["metrics"].items()
        if name.startswith("service.solve.wall_s.")
    }
    assert latency, "no per-backend solve latency histograms"
    moved = {
        name: entry
        for name, entry in latency.items()
        if entry["count"] > before.get(name, 0)
    }
    solved = sum(
        entry["count"] - before.get(name, 0) for name, entry in moved.items()
    )
    assert solved == 2
    assert all(entry["total"] > 0 for entry in moved.values())
    assert snap["metrics"]["service.wal.bytes"]["value"] > 0
    assert snap["ring"]["samples"] > 0
    assert snap["window"], "ring window came back empty"

    # The periodic flush wrote strict-JSON samples next to the WAL.
    metrics_path = live_service.root / "metrics.jsonl"
    assert metrics_path.exists()
    flushed = [
        json.loads(l) for l in metrics_path.read_text().splitlines()
    ]
    assert flushed and all(f["type"] == "metrics_sample" for f in flushed)

    # The trace verb and the CLI agree: one stitched tree per job.
    for job_id, trace_id in submissions:
        records = client.trace(job_id)["records"]
        assert records
        assert {r.get("trace_id") for r in records if r.get("trace_id")} == {
            trace_id
        }
        assert main(
            ["report", "trace", "--job", job_id,
             "--root", str(live_service.root)]
        ) == 0
        rendered = capsys.readouterr().out
        assert job_id in rendered
        assert trace_id in rendered
        for span in ("client.submit", "queue.wait", "service.job",
                     "scenario.run"):
            assert span in rendered, f"{span} missing from {job_id} tree"

    # `repro top --once` renders the same live plane.
    assert main(
        ["top", "--once", "--root", str(live_service.root)]
    ) == 0
    top = capsys.readouterr().out
    assert "repro top" in top
    assert "queue depth" in top
    assert "solve [" in top

    # And the trajectory gate passes against freshly appended history.
    history = live_service.root / "bench-history.jsonl"
    for entry in ({"steady_ms": 10.0}, {"steady_ms": 10.5},
                  {"steady_ms": 10.2}):
        append_history(entry, path=history)
    assert main(["report", "bench", str(history), "--check"]) == 0
    assert "bench check passed" in capsys.readouterr().out
