"""Host speed, sampled between repetitions, to state timings at a nominal speed.

On a small shared VM the rate at which the host runs code changes by up
to half, flipping between fast and slow states every few seconds and in
spells that outlast a whole run: in five back-to-back 25-second
closed_loop runs the fastest job of each kind summed to 3.5-5.3 s, and
the sum of per-second minima moved just as much.  No statistic over one
run's repetitions of the program alone removes that.  So a fixed kernel
that runs none of the program's code is timed before every repetition,
and in-process compute-bound timings are reported at a nominal host
speed::

    normalized = median repetition * NOMINAL_S / trimmed mean kernel sample

Measured over five runs each during a slow, unsteady spell, the
run-to-run IQR/median of closed_loop ``solve_s`` was 0.121 as measured
and 0.068 normalized; of grid ``solve_s`` 0.175 and 0.071.  A change of
the program's own speed shows in full.
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, List, Mapping

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

NOMINAL_S = 0.011
"""About the kernel sample [s] on a quiet 2-vCPU Xeon VM; only scales units."""

RATES = {"throughput"}
UNSCALED = {"peak_rss_mb"}


def _laplacian(side: int) -> sparse.csc_matrix:
    n = side * side
    return sparse.diags(
        [-1.0, -1.0, 4.2, -1.0, -1.0], [-side, -1, 0, 1, side], shape=(n, n)
    ).tocsc()


class HostSpeed:
    """Times a fixed mix of the program's kinds of work, without its code.

    The kernel mirrors the mix the workloads run: triangular solves
    with a small sparse LU factor (transient stepping), dict-heavy
    Python (policy and bookkeeping) and elementwise NumPy.
    """

    def __init__(self) -> None:
        lu_matrix = _laplacian(48)
        self._lu = splu(lu_matrix)
        self._rhs = np.linspace(0.0, 1.0, lu_matrix.shape[0])
        self._vector = np.linspace(0.0, 1.0, 50_000)
        self.samples: List[float] = []

    def _kernel(self) -> float:
        x = self._rhs
        for _ in range(20):
            x = self._lu.solve(x) + self._rhs
        tally = {}
        for i in range(15000):
            key = i % 97
            tally[key] = tally.get(key, 0.0) + min(1.0, i * 0.5)
        z = self._vector
        for _ in range(20):
            z = np.sqrt(z * z + 1.0)
        return float(x.sum() + z.sum() + sum(tally.values()))

    def sample(self, repeats: int = 3) -> None:
        """One sample: the time of ``repeats`` back-to-back kernel runs.

        Call it before every repetition of the program's work.
        """
        start = time.perf_counter()
        for _ in range(repeats):
            self._kernel()
        self.samples.append((time.perf_counter() - start) / repeats)

    def typical(self) -> float:
        """Trimmed mean sample: how fast the host ran code over the run.

        A mean, because the host flips between fast and slow states
        faster than a job runs but slower than one sample, so samples
        fall into two clusters whose median jumps between them; the
        middle 80 % drop rare stalls.
        """
        if not self.samples:
            raise ValueError("host speed was never sampled")
        ordered = sorted(self.samples)
        cut = len(ordered) // 10
        return statistics.fmean(ordered[cut : len(ordered) - cut])

    def factor(self) -> float:
        """Nominal over measured host speed: > 1 when the host ran fast."""
        return NOMINAL_S / self.typical()

    def normalize_metrics(self, raw: Mapping[str, float]) -> Dict[str, float]:
        """End-to-end metrics at the nominal host speed.

        Times scale with the factor, rates inversely, memory not at all.
        """
        factor = self.factor()
        return {
            name: value
            if name in UNSCALED
            else value / factor
            if name in RATES
            else value * factor
            for name, value in raw.items()
        }

    def report(self, raw: Mapping[str, float]) -> str:
        """One line with the host speed and the metrics as measured."""
        measured = ", ".join(f"{name} {value:.5g}" for name, value in raw.items())
        return (
            f"  host: kernel {self.typical() * 1e3:.3f} ms (trimmed mean of "
            f"{len(self.samples)}), factor {self.factor():.4f}; as measured: "
            f"{measured}"
        )
