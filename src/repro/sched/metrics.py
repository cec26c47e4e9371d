"""Performance-degradation accounting.

Fig. 7 (right axis) reports the "% delay for each policy".  The model:
every interval each core offers ``demand`` core-seconds of work; the core
executes at ``speed = f / f_nominal`` (DVFS), so up to ``speed * dt``
core-seconds complete and the rest queues as backlog.  The degradation of
a run is the extra wall-clock time needed to drain the final backlog at
nominal speed, relative to the nominal run time:

``degradation % = 100 * (sum of final backlogs / cores) / duration``

plus the time spent above capacity *during* the run is implicitly
captured because queued work executes later (or never, inside the
horizon).  Liquid-cooled policies never throttle, so their degradation is
~0; temperature-triggered DVFS accumulates measurable delay — exactly the
contrast of Fig. 7.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


class PerformanceTracker:
    """Tracks executed vs. offered work under DVFS throttling.

    Parameters
    ----------
    cores:
        Number of cores.
    """

    def __init__(self, cores: int) -> None:
        if cores < 1:
            raise ValueError("cores must be positive")
        self.cores = cores
        self.backlog = np.zeros(cores)
        self.offered = 0.0
        self.executed = 0.0
        self.elapsed = 0.0

    def record(
        self,
        demands: Sequence[float],
        speeds: Sequence[float],
        dt: float,
    ) -> np.ndarray:
        """Account one interval; returns per-core executed work [core-s].

        Parameters
        ----------
        demands:
            Offered load per core [core-s per second of wall clock].
        speeds:
            Relative throughput f/f_nominal per core in (0, 1].
        dt:
            Interval length [s].
        """
        demands = np.asarray(demands, dtype=float)
        speeds = np.asarray(speeds, dtype=float)
        if demands.shape != (self.cores,) or speeds.shape != (self.cores,):
            raise ValueError("demands and speeds must have one entry per core")
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        # fmin/fmax skip NaNs, as the element-wise comparisons do.
        if np.fmin.reduce(demands) < 0.0:
            raise ValueError("demands must be non-negative")
        if np.fmin.reduce(speeds) <= 0.0 or np.fmax.reduce(speeds) > 1.0 + 1e-9:
            raise ValueError("speeds must be in (0, 1]")
        load = self.backlog + demands * dt
        capacity = speeds * dt
        executed = np.minimum(load, capacity)
        self.backlog = load - executed
        self.offered += float(demands.sum()) * dt
        self.executed += float(executed.sum())
        self.elapsed += dt
        return executed

    @property
    def remaining_backlog(self) -> float:
        """Un-executed work at this point [core-s]."""
        return float(self.backlog.sum())

    def degradation_percent(self) -> float:
        """Relative run-time extension caused by throttling [%]."""
        if self.elapsed <= 0.0:
            return 0.0
        extra_time = self.remaining_backlog / self.cores
        return 100.0 * extra_time / self.elapsed

    def completion_fraction(self) -> float:
        """Fraction of offered work executed inside the horizon [-]."""
        if self.offered <= 0.0:
            return 1.0
        return self.executed / self.offered
