"""Telemetry layer: span nesting, metric merge, manifests, overhead."""

import os
import pickle
import time

import numpy as np
import pytest

from repro import __version__
from repro.analysis import run_simulations
from repro.analysis.sweep import resilient_fan_out
from repro.obs import (
    JsonlSink,
    MemorySink,
    build_manifest,
    get_registry,
    get_tracer,
    read_jsonl,
    read_manifest,
    render_trace,
    session,
    span_tree,
)
from repro.obs.metrics import MetricsRegistry
from repro.scenario import (
    ControlSpec,
    PolicySpec,
    ResultCache,
    Runner,
    Scenario,
    SolverSpec,
    StackSpec,
    WorkloadSpec,
)
from repro.thermal import TransientStepper

NX, NY = 12, 10
DURATION = 2
STEPS_PER_RUN = 20  # DURATION / the 100 ms control period


@pytest.fixture(autouse=True)
def _pristine_tracer():
    """Every test starts dark and leaves the global tracer dark."""
    tracer = get_tracer()
    assert not tracer.has_sinks
    yield
    tracer._sinks.clear()
    tracer.enabled = True


def _scenario(label="obs", workload="database"):
    policy = PolicySpec(name="LC_FUZZY")
    return Scenario(
        stack=StackSpec(tiers=2, cooling=policy.cooling),
        workload=WorkloadSpec(name=workload, duration=DURATION),
        policy=policy,
        solver=SolverSpec(nx=NX, ny=NY),
        control=ControlSpec(),
        label=label,
    )


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------


def test_span_nesting_emit_order_and_tree():
    tracer = get_tracer()
    sink = MemorySink()
    with session(sink):
        with tracer.span("outer", grid="12x10"):
            with tracer.span("inner"):
                pass
            with tracer.span("inner"):
                pass
    spans = sink.spans()
    # Spans emit at close: children before their parent.
    assert [s["name"] for s in spans] == ["inner", "inner", "outer"]
    # Sorting by seq recovers open order; depth gives the nesting.
    by_seq = sorted(spans, key=lambda s: s["seq"])
    assert [s["name"] for s in by_seq] == ["outer", "inner", "inner"]
    assert [s["depth"] for s in by_seq] == [0, 1, 1]
    assert by_seq[0]["attrs"] == {"grid": "12x10"}
    tree = span_tree(sink.records)
    assert tree[("outer",)].count == 1
    assert tree[("outer", "inner")].count == 2
    assert tree[("outer",)].total >= tree[("outer", "inner")].total


def test_session_emits_metrics_delta_record():
    sink = MemorySink()
    with session(sink):
        get_registry().counter("test_obs.session_counter").inc(7)
    (metrics_record,) = [
        r for r in sink.records if r["type"] == "metrics"
    ]
    assert (
        metrics_record["metrics"]["test_obs.session_counter"]["value"] == 7
    )


def test_jsonl_sink_roundtrip_and_render(tmp_path):
    path = tmp_path / "trace.jsonl"
    tracer = get_tracer()
    with session(JsonlSink(path)):
        with tracer.span("steady_solve", nodes=1200):
            tracer.event("krylov.fallback", iterations=3)
    records = read_jsonl(path)
    assert {r["type"] for r in records} == {"span", "event", "metrics"}
    rendered = render_trace(str(path))
    assert "steady_solve" in rendered
    assert "krylov.fallback" in rendered


# ---------------------------------------------------------------------------
# metrics registry
# ---------------------------------------------------------------------------


def test_registry_snapshot_delta_merge():
    registry = MetricsRegistry()
    counter = registry.counter("c")
    counter.inc(3)
    histogram = registry.histogram("h")
    histogram.observe(1.0)
    histogram.observe(3.0)
    registry.gauge("g").set(2.5)
    start = registry.snapshot()
    counter.inc(2)
    histogram.observe(5.0)
    delta = registry.delta_since(start)
    assert delta["c"]["value"] == 2
    assert delta["h"]["count"] == 1
    assert delta["h"]["total"] == 5.0
    assert "g" not in delta  # unchanged gauges stay out of the delta
    other = MetricsRegistry()
    other.merge(delta)
    other.merge(delta)
    assert other.counter("c").value == 4
    assert other.histogram("h").count == 2


@pytest.mark.parametrize("start_method", ["fork", "spawn"], indirect=True)
def test_metric_merge_across_pool_workers(start_method):
    jobs = [_scenario("job-a"), _scenario("job-b", workload="web")]
    registry = get_registry()
    sink = MemorySink()
    before = registry.snapshot()
    with session(sink):
        results = run_simulations(jobs, processes=2)
    assert len(results) == 2
    delta = registry.delta_since(before)
    # Two 2 s runs at the 100 ms control period, merged back from the
    # workers.  fork workers inherit the parent's counter values and
    # spawn workers start from zero; the capture delta must make both
    # roll up identically.
    assert delta["sim.steps"]["value"] == 2 * STEPS_PER_RUN
    assert delta["sim.max_temperature_c"]["count"] == 2 * STEPS_PER_RUN
    span_records = [r for r in sink.records if r["type"] == "span"]
    names = {r["name"] for r in span_records}
    assert "sweep.job" in names
    assert "simulator.step" in names
    worker_pids = {
        r["pid"] for r in span_records if r["name"] == "simulator.run"
    }
    assert worker_pids and os.getpid() not in worker_pids
    # Ingested worker spans must still satisfy the seq/depth invariant.
    tree = span_tree(sink.records)
    step_paths = [p for p in tree if p[-1] == "simulator.step"]
    assert step_paths
    assert all("sweep.job" in p for p in step_paths)


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------


def test_manifest_hash_stable_across_labels():
    kwargs = dict(
        version=__version__,
        solver_backend="direct",
        wall_s=0.1,
        cpu_s=0.1,
        metrics={},
    )
    a = build_manifest(_scenario("label-a"), **kwargs)
    b = build_manifest(_scenario("label-b"), **kwargs)
    other = build_manifest(_scenario("label-a", workload="web"), **kwargs)
    # The label is bookkeeping: it must not move the content hash.
    assert a["content_hash"] == b["content_hash"]
    assert a["label"] != b["label"]
    assert other["content_hash"] != a["content_hash"]


def test_runner_writes_manifest_next_to_cache_entry(tmp_path):
    scenario = _scenario("manifest-run")
    cache = ResultCache(tmp_path)
    runner = Runner(scenario, cache=cache)
    runner.run()
    assert runner.last_manifest is not None
    assert runner.last_manifest["content_hash"] == scenario.content_hash()
    on_disk = read_manifest(cache.manifest_path(scenario))
    assert on_disk is not None
    assert on_disk["content_hash"] == scenario.content_hash()
    assert on_disk["version"] == __version__
    assert on_disk["cached"] is False
    assert on_disk["metrics"]["sim.steps"]["value"] == STEPS_PER_RUN
    assert cache.manifest_path(scenario).parent == cache.path(scenario).parent
    # A cache hit still refreshes the manifest, flagged as cached.
    hit_runner = Runner(scenario, cache=cache)
    hit_runner.run()
    assert hit_runner.last_manifest["cached"] is True
    assert read_manifest(cache.manifest_path(scenario))["cached"] is True


# ---------------------------------------------------------------------------
# failure context (JobFailure bugfix)
# ---------------------------------------------------------------------------


def test_job_failure_carries_timing_and_span_context():
    tracer = get_tracer()

    def boom(_item):
        with tracer.span("job.setup"):
            with tracer.span("job.solve"):
                raise ValueError("kaput")

    outcome = resilient_fan_out(boom, [0], None, retries=1)
    (failure,) = outcome.failures
    assert failure.error_type == "ValueError"
    assert failure.attempts == 2
    assert failure.retry_index == 1
    assert failure.last_span == "job.solve"
    assert failure.elapsed_s is not None
    assert failure.elapsed_s >= 0.0


def test_exception_annotations_survive_pickling():
    try:
        with get_tracer().span("doomed"):
            raise RuntimeError("boom")
    except RuntimeError as exc:
        exc._obs_elapsed_s = 1.5
        restored = pickle.loads(pickle.dumps(exc))
    assert restored._obs_last_span == "doomed"
    assert restored._obs_elapsed_s == 1.5


# ---------------------------------------------------------------------------
# overhead
# ---------------------------------------------------------------------------


def test_noop_overhead_within_two_percent(liquid_stack_2tier):
    """Dark telemetry must cost <2% on the transient stepping loop.

    Shared runners show +-8-10% window-to-window timing noise (wall
    *and* CPU time), which a direct dark-vs-instrumented A/B cannot
    resolve against a 2% budget.  The budget is therefore asserted
    compositionally: measure the dark (sink-less) cost of one span and
    one counter increment directly, multiply by a generous bound on
    what one transient step fires (actually 1 span + 3 increments,
    budgeted here as 4 spans + 8 increments), and compare against the
    measured per-step cost at the closed-loop grid resolution (23x20).
    The real margin is ~10x, so timing noise cannot flip the verdict.
    """
    from repro.thermal import CompactThermalModel

    model = CompactThermalModel(liquid_stack_2tier, nx=23, ny=20)
    stepper = TransientStepper(
        model, dt=0.1, initial=model.uniform_field(300.15)
    )
    packed = np.full(len(model.block_order), 2.0)
    tracer = get_tracer()
    assert not tracer.has_sinks  # dark: the no-op path under test

    def best_of(fn, windows=5):
        best = float("inf")
        for _ in range(windows):
            start = time.process_time()
            fn()
            best = min(best, time.process_time() - start)
        return best

    def run_steps(steps=50):
        for _ in range(steps):
            stepper.step_packed(packed)

    def run_spans(n=20000):
        for _ in range(n):
            with tracer.span("overhead.probe", grid="23x20"):
                pass

    counter = get_registry().counter("test_obs.overhead_probe")

    def run_incs(n=20000):
        for _ in range(n):
            counter.inc()

    run_steps(20)  # warm the factor cache out of the measurement
    per_step = best_of(run_steps) / 50
    per_span = best_of(run_spans) / 20000
    per_inc = best_of(run_incs) / 20000
    per_step_overhead = 4 * per_span + 8 * per_inc
    assert per_step_overhead < 0.02 * per_step, (
        f"dark telemetry budget blown: 4 spans + 8 increments cost "
        f"{per_step_overhead * 1e6:.2f} us against a 2% budget of "
        f"{0.02 * per_step * 1e6:.2f} us per {per_step * 1e3:.3f} ms step"
    )
