"""Estimators, operation bookkeeping and the result line shared by every workload."""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

REPO_ROOT = Path(__file__).resolve().parents[2]
WORK_DIR = REPO_ROOT / "perfbench" / ".work"

Metrics = Dict[str, Tuple[float, str]]


def fastest(samples: Sequence[float]) -> float:
    """The fastest repetition of one unit of work."""
    if not samples:
        raise ValueError("no repetitions to take the fastest of")
    return min(samples)


def median_by_key(samples: Mapping[str, Sequence[float]]) -> Dict[str, float]:
    """Median repetition of each key's unit of work.

    The estimator of in-process compute-bound timings, which are then
    stated at a nominal host speed (see :mod:`pbench.hostspeed`).
    """
    return {key: statistics.median(values) for key, values in samples.items()}


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0..1) with linear interpolation between ranks."""
    if not values:
        raise ValueError("no values")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile {q} outside [0, 1]")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q
    low = math.floor(position)
    high = math.ceil(position)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def count_beyond(values: Sequence[float], threshold: float) -> int:
    """Samples strictly above ``threshold`` (the tail behind a percentile)."""
    return sum(1 for value in values if value > threshold)


@dataclass
class Outcome:
    """Operations attempted and failed, with the reason of each failure.

    ``self_check`` collects mismatches of the benchmark's own
    determinism check (counts that must repeat exactly); any of them
    makes the run incorrect even when every output matched.
    """

    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    self_check: List[str] = field(default_factory=list)

    def record(self, what: str, problems: Iterable[str]) -> bool:
        """Count one operation; it failed when ``problems`` is non-empty."""
        problems = list(problems)
        self.attempted += 1
        if problems:
            self.failures.append(f"{what}: " + "; ".join(problems))
        return not problems

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def correct(self) -> bool:
        return not self.failures and not self.self_check


def same_counts(
    outcome: Outcome, what: str, runs: Sequence[Mapping[str, int]]
) -> None:
    """Demand that every repetition of one unit produced identical counts."""
    for index, counts in enumerate(runs[1:], start=1):
        if dict(counts) != dict(runs[0]):
            outcome.self_check.append(
                f"{what}: repetition {index} counts {dict(counts)} "
                f"differ from repetition 0 {dict(runs[0])}"
            )


def counter_deltas(
    delta: Mapping[str, Mapping[str, object]], names: Iterable[str]
) -> Dict[str, int]:
    """Counter values of a registry ``delta_since`` window (0 when untouched)."""
    return {name: int(delta.get(name, {}).get("value", 0)) for name in names}


def self_peak_rss_mb() -> float:
    """Peak resident set of this process [MiB] (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of another live process [MiB]."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def scrub_environment(environ: Dict[str, str]) -> List[str]:
    """Drop every ``REPRO_*`` override so runs measure the defaults."""
    names = sorted(name for name in environ if name.startswith("REPRO_"))
    for name in names:
        del environ[name]
    return names


def result_line(outcome: Outcome, metrics: Metrics) -> str:
    """The run's final line: outcome counts and metrics with units, as JSON."""
    for name, (value, _) in metrics.items():
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is not finite: {value}")
    return json.dumps(
        {
            "correct": outcome.correct,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }
    )


def work_root(prefix: str) -> Path:
    """A fresh scratch directory inside the checkout, relative to its root.

    Relative, because a service socket lives in it and Unix socket
    paths are limited to about 100 bytes; callers run from the root.
    """
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    path = tempfile.mkdtemp(prefix=prefix, dir=WORK_DIR)
    return Path(os.path.relpath(path, REPO_ROOT))
