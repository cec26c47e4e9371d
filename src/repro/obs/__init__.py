"""Zero-dependency telemetry: spans, metrics, sinks, run manifests.

The observability substrate of the reproduction (DESIGN.md section 11):

* :mod:`repro.obs.trace` — span tracer with monotonic timings,
  nesting, per-span attributes and point events;
* :mod:`repro.obs.metrics` — process-global counters / gauges /
  histograms with snapshot / delta / merge for cross-process rollups;
* :mod:`repro.obs.sinks` — pluggable record sinks (none by default,
  JSONL file, in-memory);
* :mod:`repro.obs.manifest` — per-run manifests binding scenario
  content hashes to code version, backend and cost;
* :mod:`repro.obs.report` — trace rendering (span tree, top-k
  durations, metric table) behind ``repro report trace``;
* :mod:`repro.obs.live` — the live operational plane (DESIGN.md
  section 16): cross-process trace contexts, the bounded metrics ring
  behind the service's ``metrics`` verb and Prometheus endpoint, the
  signal-based sampling profiler, and the perf-regression watchdog.

Typical use::

    from repro.obs import JsonlSink, session

    with session(JsonlSink("run.jsonl")):
        run_scenario(scenario)

and in sweep workers, :func:`capture_telemetry` records spans and the
metrics delta into a picklable payload the parent merges with
``get_tracer().ingest`` + ``get_registry().merge``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from .live import (
    PROFILE_ENV,
    MetricsRing,
    PerfWatchdog,
    SamplingProfiler,
    TraceContext,
    annotate_records,
    check_bench_history,
    current_trace,
    json_safe_snapshot,
    profile_requested,
    record_job_id,
    render_prometheus,
    set_current_trace,
)
from .manifest import (
    MANIFEST_SCHEMA_VERSION,
    build_manifest,
    read_manifest,
    write_manifest,
)
from .metrics import Counter, Gauge, Histogram, MetricsRegistry, get_registry
from .report import (
    job_records,
    render_job_trace,
    render_trace,
    span_tree,
    top_durations,
)
from .sinks import JsonlSink, MemorySink, NullSink, Sink, read_jsonl
from .trace import Span, Tracer, get_tracer

OBS_PAYLOAD_KEY = "__obs_payload__"
"""Marker key identifying a worker telemetry payload dict."""


@contextmanager
def session(sink: Optional[Sink] = None) -> Iterator[Optional[Sink]]:
    """Attach a sink for one measured window and roll its metrics up.

    On exit the sink additionally receives one ``{"type": "metrics"}``
    record holding the registry delta of the window, then is closed.
    With ``sink=None`` this is a no-op wrapper (telemetry stays dark),
    so call sites can thread an optional sink without branching.
    """
    if sink is None:
        yield None
        return
    tracer = get_tracer()
    registry = get_registry()
    start = registry.snapshot()
    tracer.add_sink(sink)
    try:
        yield sink
    finally:
        tracer.remove_sink(sink)
        try:
            sink.write(
                {"type": "metrics", "metrics": registry.delta_since(start)}
            )
        finally:
            sink.close()


@contextmanager
def capture_telemetry(payload_out: dict) -> Iterator[None]:
    """Record spans + metrics delta of a block into ``payload_out``.

    The payload (``{OBS_PAYLOAD_KEY: True, "spans": [...], "metrics":
    {...}}``) is plain data, safe to pickle back from a worker process;
    the parent merges it with :meth:`Tracer.ingest` and
    :meth:`MetricsRegistry.merge`.  Metrics are a *delta*, so counter
    values inherited through ``fork`` do not double-count.
    """
    tracer = get_tracer()
    registry = get_registry()
    sink = MemorySink()
    start = registry.snapshot()
    tracer.add_sink(sink)
    try:
        yield
    finally:
        tracer.remove_sink(sink)
        payload_out[OBS_PAYLOAD_KEY] = True
        payload_out["spans"] = sink.records
        payload_out["metrics"] = registry.delta_since(start)


def is_obs_payload(value: object) -> bool:
    """Is ``value`` a telemetry payload from :func:`capture_telemetry`?"""
    return isinstance(value, dict) and value.get(OBS_PAYLOAD_KEY) is True


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "JsonlSink",
    "MANIFEST_SCHEMA_VERSION",
    "MemorySink",
    "MetricsRegistry",
    "MetricsRing",
    "NullSink",
    "OBS_PAYLOAD_KEY",
    "PROFILE_ENV",
    "PerfWatchdog",
    "SamplingProfiler",
    "Sink",
    "Span",
    "TraceContext",
    "Tracer",
    "annotate_records",
    "build_manifest",
    "capture_telemetry",
    "check_bench_history",
    "current_trace",
    "get_registry",
    "get_tracer",
    "is_obs_payload",
    "job_records",
    "json_safe_snapshot",
    "profile_requested",
    "read_jsonl",
    "read_manifest",
    "record_job_id",
    "render_job_trace",
    "render_prometheus",
    "render_trace",
    "session",
    "set_current_trace",
    "span_tree",
    "top_durations",
    "write_manifest",
]
