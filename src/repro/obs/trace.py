"""Span-based tracer with monotonic timings and nesting.

A span is one timed region of the execution — a steady solve, one
control-period step, one sweep job.  Spans nest through a per-tracer
stack; each carries

* ``t0`` — wall-clock start (``time.time``), comparable across the
  processes of a fan-out,
* ``dur`` — monotonic duration (``time.perf_counter``),
* ``depth``/``seq`` — stack depth and a process-wide open-order
  sequence number.  Spans are *emitted at close* (children before
  parents), so sorting emitted records by ``seq`` recovers the open
  order and, with ``depth``, the full tree — see
  :func:`repro.obs.report.span_tree`.

Cost model: with no sink attached, entering/exiting a span is two
``perf_counter`` calls plus a list append/pop — the record dict is
never built.  ``Tracer.enabled = False`` removes even that, which is
the un-instrumented baseline the overhead test compares against.
Attribute computation at call sites should be guarded by
``tracer.has_sinks`` when the attributes themselves are not free.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Optional, Sequence

from .sinks import Sink


class Span:
    """One timed region; use as a context manager via ``Tracer.span``."""

    __slots__ = ("_tracer", "name", "attrs", "_t0", "_wall", "depth", "seq", "_live")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, object]):
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.depth = 0
        self.seq = -1
        self._live = False

    def set(self, **attrs: object) -> None:
        """Attach attributes known only at (or near) close time."""
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        tracer = self._tracer
        if not tracer.enabled:
            return self
        self._live = True
        stack = tracer._stack
        self.depth = len(stack)
        stack.append(self.name)
        if tracer._sinks:
            self.seq = tracer._seq
            tracer._seq += 1
            self._wall = time.time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if not self._live:
            return False
        duration = time.perf_counter() - self._t0
        tracer = self._tracer
        tracer._stack.pop()
        self._live = False
        if exc is not None and getattr(exc, "_obs_last_span", None) is None:
            # Stamp the innermost open span onto the escaping exception
            # (innermost __exit__ runs first); failure records read it
            # after the stack has fully unwound — and, because
            # ``__dict__`` pickles with the exception, after a hop back
            # from a worker process.
            try:
                exc._obs_last_span = self.name
            except (AttributeError, TypeError):
                pass
        if tracer._sinks and self.seq >= 0:
            record: Dict[str, object] = {
                "type": "span",
                "name": self.name,
                "t0": self._wall,
                "dur": duration,
                "depth": self.depth,
                "seq": self.seq,
                "pid": os.getpid(),
            }
            if self.attrs:
                record["attrs"] = dict(self.attrs)
            if exc_type is not None:
                record["error"] = exc_type.__name__
            tracer.emit(record)
        return False


class Tracer:
    """Process-global span stack plus the attached sinks.

    The name stack is maintained even with no sinks attached so
    :attr:`current_span_name` stays truthful — failure records
    (:class:`repro.analysis.sweep.JobFailure`) report the last open
    span of a dying job whether or not anyone was recording.
    """

    def __init__(self) -> None:
        self._sinks: List[Sink] = []
        self._stack: List[str] = []
        self._seq = 0
        self.enabled = True

    # -- sink management ----------------------------------------------

    @property
    def has_sinks(self) -> bool:
        return bool(self._sinks)

    def add_sink(self, sink: Sink) -> Sink:
        self._sinks.append(sink)
        return sink

    def remove_sink(self, sink: Sink) -> None:
        try:
            self._sinks.remove(sink)
        except ValueError:
            pass

    def emit(self, record: dict) -> None:
        """Hand one record to every attached sink."""
        for sink in self._sinks:
            sink.write(record)

    # -- spans ---------------------------------------------------------

    def span(self, name: str, **attrs: object) -> Span:
        """A context-managed span; attributes ride along into the record."""
        return Span(self, name, attrs)

    @property
    def current_span_name(self) -> str:
        """Name of the innermost open span (empty when none)."""
        return self._stack[-1] if self._stack else ""

    @property
    def depth(self) -> int:
        """Current nesting depth (open spans on the stack)."""
        return len(self._stack)

    def emit_span(
        self,
        name: str,
        t0: float,
        dur: float,
        *,
        depth: int = 0,
        attrs: Optional[Dict[str, object]] = None,
        **top: object,
    ) -> None:
        """Emit a synthetic span record without touching the stack.

        For regions whose endpoints are only *observed*, not executed,
        by this process — the service reconstructs ``client.submit``
        and ``queue.wait`` spans from wall-clock timestamps carried on
        the wire.  ``top`` lands on the record itself (``job_id``,
        ``trace_id``), keeping it filterable without attr digging.
        """
        if not self._sinks:
            return
        record: Dict[str, object] = {
            "type": "span",
            "name": name,
            "t0": float(t0),
            "dur": float(dur),
            "depth": int(depth),
            "seq": self._seq,
            "pid": os.getpid(),
        }
        self._seq += 1
        if attrs:
            record["attrs"] = dict(attrs)
        record.update(top)
        self.emit(record)

    def event(self, name: str, **attrs: object) -> None:
        """A zero-duration point event (e.g. a Krylov fallback)."""
        if not self._sinks:
            return
        record: Dict[str, object] = {
            "type": "event",
            "name": name,
            "t0": time.time(),
            "depth": len(self._stack),
            "seq": self._seq,
            "pid": os.getpid(),
        }
        self._seq += 1
        if attrs:
            record["attrs"] = attrs
        self.emit(record)

    def ingest(self, records: Sequence[dict], depth_offset: int = 0) -> None:
        """Merge span/event records captured in another process.

        Worker records keep their own ``pid``, wall-clock ``t0`` and
        durations; ``depth`` is shifted under the caller's current
        nesting and ``seq`` is re-assigned (preserving the worker's
        relative open order) so the merged stream still satisfies the
        sort-by-``seq`` tree reconstruction.
        """
        if not self._sinks:
            return
        for record in sorted(records, key=lambda r: r.get("seq", 0)):
            merged = dict(record)
            merged["depth"] = int(record.get("depth", 0)) + depth_offset
            merged["seq"] = self._seq
            self._seq += 1
            self.emit(merged)


_TRACER: Optional[Tracer] = None


def get_tracer() -> Tracer:
    """The process-global tracer (created on first use, never swapped)."""
    global _TRACER
    if _TRACER is None:
        _TRACER = Tracer()
    return _TRACER
