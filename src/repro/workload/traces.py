"""Per-thread utilisation traces.

Section IV-A: "we use workload traces collected from real applications
running on an UltraSPARC T1.  We record the utilization percentage for
each hardware thread at every second for several minutes for each
benchmark."  The original traces are proprietary; :mod:`.generators`
synthesises traces with the same structure (per-hardware-thread
utilisation, 1 s sampling) and the workload-class statistics the paper
names (web server, database management, multimedia processing).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..constants import TRACE_PERIOD


@dataclass
class WorkloadTrace:
    """A per-thread utilisation trace.

    Attributes
    ----------
    name:
        Benchmark name, e.g. ``"web"``.
    utilisation:
        Array of shape ``(intervals, threads)`` with values in [0, 1]:
        the fraction of each 1 s interval each hardware thread wants to
        execute.
    period:
        Sampling period [s] (the paper records every second).
    """

    name: str
    utilisation: np.ndarray
    period: float = TRACE_PERIOD

    def __post_init__(self) -> None:
        self.utilisation = np.asarray(self.utilisation, dtype=float)
        if self.utilisation.ndim != 2:
            raise ValueError("utilisation must be 2-D (intervals x threads)")
        if self.utilisation.size == 0:
            raise ValueError("trace must not be empty")
        if np.any(self.utilisation < 0.0) or np.any(self.utilisation > 1.0):
            raise ValueError("utilisation values must lie in [0, 1]")
        if self.period <= 0.0:
            raise ValueError("period must be positive")

    # -- shape ---------------------------------------------------------------

    @property
    def intervals(self) -> int:
        """Number of sampling intervals."""
        return self.utilisation.shape[0]

    @property
    def threads(self) -> int:
        """Number of hardware threads."""
        return self.utilisation.shape[1]

    @property
    def duration(self) -> float:
        """Trace length [s]."""
        return self.intervals * self.period

    # -- statistics ------------------------------------------------------------

    @property
    def mean_utilisation(self) -> float:
        """Mean utilisation over all threads and intervals [-]."""
        return float(self.utilisation.mean())

    @property
    def peak_interval_utilisation(self) -> float:
        """Highest thread-mean utilisation of any interval [-]."""
        return float(self.utilisation.mean(axis=1).max())

    def interval(self, index: int) -> np.ndarray:
        """Per-thread utilisation of one interval."""
        return self.utilisation[index]

    def truncated(self, intervals: int) -> "WorkloadTrace":
        """A copy limited to the first ``intervals`` samples."""
        if not 0 < intervals <= self.intervals:
            raise ValueError("intervals out of range")
        return WorkloadTrace(
            name=self.name,
            utilisation=self.utilisation[:intervals].copy(),
            period=self.period,
        )

    def __repr__(self) -> str:
        return (
            f"WorkloadTrace({self.name!r}, {self.intervals} x {self.threads}, "
            f"mean={self.mean_utilisation:.2f})"
        )
