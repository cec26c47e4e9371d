"""Append-only JSONL write-ahead log with crash-safe recovery.

The durability contract of the scenario service rests on this file:
every job submission and state transition is one JSON object on its
own line, appended and flushed (optionally fsynced) *before* the
in-memory state changes.  Replaying the log therefore reconstructs the
job table exactly as of the last completed append, no matter how the
process died.

Layout: a directory of numbered segments ``wal-000001.jsonl``,
``wal-000002.jsonl``, ...  Appends always go to the highest-numbered
segment.  :meth:`WriteAheadLog.rotate` compacts the live state into a
fresh segment (written to a temp file and ``os.replace``d into place —
the same atomic-publish discipline as
:class:`~repro.scenario.cache.ResultCache`) and only then unlinks the
older segments, so a crash at any point leaves either the old segments
or a complete new one, never neither.

Recovery policy (mirroring the ResultCache corrupt-entry policy): a
torn or garbled tail — the partial line a ``kill -9`` mid-write leaves
behind — is **truncated** at the last byte of the last decodable
record, counted on the ``service.wal.corrupt_tail`` counter and traced
as a ``wal.corrupt_tail`` event; everything before it replays
normally.  At most the single uncommitted record is lost, which is
exactly what "the append had not returned yet" means.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from ..obs.metrics import get_registry
from ..obs.trace import get_tracer

SEGMENT_PREFIX = "wal-"
SEGMENT_SUFFIX = ".jsonl"

WAL_SCHEMA_VERSION = 1
"""Bumped on incompatible record-format changes; stamped per record."""


@dataclass
class WalRecoveryReport:
    """What :meth:`WriteAheadLog.replay` found on disk.

    Attributes
    ----------
    records:
        Every decodable record, in append order across segments.
    corrupt_tail_segments:
        Segment paths whose tail was truncated (at most the one
        uncommitted record lost per segment).
    dropped_bytes:
        Total bytes cut off by tail truncation.
    """

    records: List[dict] = field(default_factory=list)
    corrupt_tail_segments: List[Path] = field(default_factory=list)
    dropped_bytes: int = 0


def _segment_index(path: Path) -> Optional[int]:
    name = path.name
    if not (name.startswith(SEGMENT_PREFIX) and name.endswith(SEGMENT_SUFFIX)):
        return None
    digits = name[len(SEGMENT_PREFIX) : -len(SEGMENT_SUFFIX)]
    return int(digits) if digits.isdigit() else None


class WriteAheadLog:
    """Durable JSONL journal under one directory.

    Parameters
    ----------
    root:
        Directory holding the segments (created on first append).
    fsync:
        When true (the default) every append fsyncs the segment file
        before returning — the strongest durability the filesystem
        offers.  Tests that hammer the log can turn it off.
    rotate_after:
        Appended-record count that arms :meth:`maybe_rotate`; once a
        compaction wrote more live records than this, that count arms
        the next one, so compaction stays amortised O(1) per append.
    """

    def __init__(
        self,
        root: Path,
        *,
        fsync: bool = True,
        rotate_after: int = 4096,
    ) -> None:
        self.root = Path(root)
        self.fsync = fsync
        self.rotate_after = int(rotate_after)
        self._handle = None
        self._segment: Optional[Path] = None
        # Appends since the last compaction (or load); its live records.
        self._appended = 0
        self._live_written = 0
        registry = get_registry()
        self._c_appends = registry.counter("service.wal.appends")
        self._c_corrupt = registry.counter("service.wal.corrupt_tail")
        self._c_rotations = registry.counter("service.wal.rotations")

    # -- segment bookkeeping ------------------------------------------------

    def segments(self) -> List[Path]:
        """Existing segment files, oldest first."""
        if not self.root.exists():
            return []
        found: List[Tuple[int, Path]] = []
        for path in self.root.iterdir():
            index = _segment_index(path)
            if index is not None:
                found.append((index, path))
        return [path for _, path in sorted(found)]

    def _open_segment(self) -> None:
        if self._handle is not None:
            return
        self.root.mkdir(parents=True, exist_ok=True)
        existing = self.segments()
        if existing:
            self._segment = existing[-1]
        else:
            self._segment = self.root / f"{SEGMENT_PREFIX}000001{SEGMENT_SUFFIX}"
        self._handle = open(self._segment, "ab")

    def close(self) -> None:
        """Release the append handle (replay/rotate reopen on demand)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    # -- append -------------------------------------------------------------

    def append(self, record: Dict[str, object]) -> None:
        """Durably append one record (flushed, fsynced when enabled)."""
        self._open_segment()
        payload = dict(record)
        payload.setdefault("wal_schema", WAL_SCHEMA_VERSION)
        line = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        self._handle.write(line.encode("utf-8") + b"\n")
        self._handle.flush()
        if self.fsync:
            os.fsync(self._handle.fileno())
        self._appended += 1
        self._c_appends.inc()

    def size_bytes(self) -> int:
        """Total on-disk bytes across segments (the WAL-bytes gauge).

        Stat-based, so the cost is one ``stat`` per segment — cheap
        enough to sample every metrics interval.
        """
        total = 0
        for path in self.segments():
            try:
                total += path.stat().st_size
            except OSError:
                pass
        return total

    # -- replay -------------------------------------------------------------

    def _replay_segment(
        self, path: Path, report: WalRecoveryReport, repair: bool
    ) -> None:
        """Decode one segment; truncate and count a corrupt tail.

        Any undecodable line abandons the remainder of the segment:
        records are only ever appended, so bytes after the first bad
        line are either the torn write itself or data that the torn
        write's absence would reorder — dropping both keeps replay a
        prefix of the true history.
        """
        blob = path.read_bytes()
        good_end = 0
        offset = 0
        corrupt = False
        while offset < len(blob):
            newline = blob.find(b"\n", offset)
            if newline < 0:  # torn final line without a newline
                corrupt = True
                break
            line = blob[offset:newline]
            if line.strip():
                try:
                    record = json.loads(line.decode("utf-8"))
                    if not isinstance(record, dict):
                        raise ValueError("non-object record")
                except (ValueError, UnicodeDecodeError):
                    corrupt = True
                    break
                report.records.append(record)
            good_end = newline + 1
            offset = newline + 1
        if corrupt:
            dropped = len(blob) - good_end
            report.corrupt_tail_segments.append(path)
            report.dropped_bytes += dropped
            self._c_corrupt.inc()
            get_tracer().event(
                "wal.corrupt_tail",
                segment=path.name,
                dropped_bytes=dropped,
            )
            if repair:
                with open(path, "r+b") as handle:
                    handle.truncate(good_end)

    def replay(self, *, repair: bool = True) -> WalRecoveryReport:
        """Decode every record on disk, oldest segment first.

        With ``repair`` (the default) corrupt tails are physically
        truncated so the next append continues from a clean prefix.
        """
        self.close()
        report = WalRecoveryReport()
        for path in self.segments():
            self._replay_segment(path, report, repair)
        self._appended = len(report.records)
        self._live_written = 0
        return report

    # -- rotation -----------------------------------------------------------

    def rotate(self, live_records: Iterable[Dict[str, object]]) -> Path:
        """Compact the journal to a fresh segment holding ``live_records``.

        The new segment is staged in a temp file and atomically
        published with ``os.replace`` before the old segments are
        unlinked, so there is no instant at which the log is empty or
        half-written.
        """
        self.close()
        self.root.mkdir(parents=True, exist_ok=True)
        old = self.segments()
        next_index = (_segment_index(old[-1]) + 1) if old else 1
        target = self.root / (
            f"{SEGMENT_PREFIX}{next_index:06d}{SEGMENT_SUFFIX}"
        )
        handle, tmp_name = tempfile.mkstemp(dir=str(self.root), suffix=".tmp")
        count = 0
        try:
            with os.fdopen(handle, "wb") as tmp:
                for record in live_records:
                    payload = dict(record)
                    payload.setdefault("wal_schema", WAL_SCHEMA_VERSION)
                    line = json.dumps(
                        payload, sort_keys=True, separators=(",", ":")
                    )
                    tmp.write(line.encode("utf-8") + b"\n")
                    count += 1
                tmp.flush()
                os.fsync(tmp.fileno())
            os.replace(tmp_name, target)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        for path in old:
            try:
                path.unlink()
            except OSError:
                pass
        self._appended = 0
        self._live_written = count
        self._c_rotations.inc()
        get_tracer().event(
            "wal.rotate", segment=target.name, live_records=count
        )
        return target

    def maybe_rotate(
        self, live_records_fn
    ) -> Optional[Path]:
        """Rotate once the appends since the last compaction (or load)
        reach both ``rotate_after`` and the live records it wrote.

        ``live_records_fn`` is called only when rotation actually
        happens (building the compacted view is not free).
        """
        if self._appended < max(self.rotate_after, self._live_written):
            return None
        return self.rotate(live_records_fn())

    def __repr__(self) -> str:
        return (
            f"WriteAheadLog({str(self.root)!r}, "
            f"appended={self._appended})"
        )
