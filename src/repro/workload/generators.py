"""Synthetic workload-trace generators.

The paper uses "various real-life benchmarks including web server,
database management, and multimedia processing" recorded on an
UltraSPARC T1 (32 hardware threads: 8 cores x 4 threads).  The original
traces are not public, so these generators produce seeded, reproducible
traces with the statistics each class is known for (and which the
policies actually react to):

* **web server** — moderate mean load with bursty arrivals: an AR(1)
  baseline modulated by Poisson-arriving request bursts; high variance
  and thread imbalance.
* **database** — high, steadily correlated load (OLTP-style): large
  common component across threads, small noise.
* **multimedia** — periodic frame-processing load: deterministic period
  with per-frame jitter.
* **max utilisation** — the near-saturation benchmark used for the
  "maximum utilization" bars of Fig. 6.
* **idle** — background load, useful for energy floors and tests.

All generators take an explicit seed and return a
:class:`~repro.workload.traces.WorkloadTrace`.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

import numpy as np

from .traces import WorkloadTrace

THREADS_PER_CORE = 4
"""Hardware threads per UltraSPARC T1 core."""


def _clip(values: np.ndarray) -> np.ndarray:
    return np.clip(values, 0.0, 1.0)


def _ar1(
    rng: np.random.Generator,
    intervals: int,
    threads: int,
    mean: float,
    sigma: float,
    rho: float,
) -> np.ndarray:
    """A mean-reverting AR(1) process per thread."""
    noise = rng.normal(0.0, sigma, size=(intervals, threads))
    series = np.empty((intervals, threads))
    series[0] = mean + noise[0]
    for t in range(1, intervals):
        series[t] = mean + rho * (series[t - 1] - mean) + noise[t]
    return series


def web_server_trace(
    threads: int = 32, duration: int = 300, seed: int = 1
) -> WorkloadTrace:
    """Bursty web-server workload (mean utilisation ~0.35)."""
    rng = np.random.default_rng(seed)
    base = _ar1(rng, duration, threads, mean=0.30, sigma=0.06, rho=0.8)
    # Poisson-arriving bursts hit random subsets of threads for a few
    # seconds each (request spikes).
    bursts = np.zeros((duration, threads))
    t = 0
    while t < duration:
        t += int(rng.exponential(15.0)) + 1
        if t >= duration:
            break
        length = rng.integers(2, 8)
        hit = rng.random(threads) < 0.4
        bursts[t : t + length, hit] += rng.uniform(0.3, 0.6)
    return WorkloadTrace("web", _clip(base + bursts))


def database_trace(
    threads: int = 32, duration: int = 300, seed: int = 2
) -> WorkloadTrace:
    """Steady high-load OLTP workload (mean utilisation ~0.7)."""
    rng = np.random.default_rng(seed)
    common = _ar1(rng, duration, 1, mean=0.70, sigma=0.04, rho=0.9)
    per_thread = rng.normal(0.0, 0.05, size=(duration, threads))
    return WorkloadTrace("database", _clip(common + per_thread))


def multimedia_trace(
    threads: int = 32, duration: int = 300, seed: int = 3
) -> WorkloadTrace:
    """Periodic frame-processing workload (mean utilisation ~0.5)."""
    rng = np.random.default_rng(seed)
    t = np.arange(duration)[:, None]
    frame_period = 8.0
    phase = rng.uniform(0.0, frame_period, size=(1, threads))
    wave = 0.5 + 0.25 * np.sign(np.sin(2.0 * np.pi * (t + phase) / frame_period))
    jitter = rng.normal(0.0, 0.05, size=(duration, threads))
    return WorkloadTrace("multimedia", _clip(wave + jitter))


def max_utilisation_trace(
    threads: int = 32, duration: int = 300, seed: int = 4
) -> WorkloadTrace:
    """Near-saturation benchmark (mean utilisation ~0.92)."""
    rng = np.random.default_rng(seed)
    base = _ar1(rng, duration, threads, mean=0.93, sigma=0.03, rho=0.7)
    return WorkloadTrace("max-utilisation", _clip(base))


def idle_trace(threads: int = 32, duration: int = 300, seed: int = 5) -> WorkloadTrace:
    """Mostly idle background load (mean utilisation ~0.08)."""
    rng = np.random.default_rng(seed)
    base = _ar1(rng, duration, threads, mean=0.08, sigma=0.03, rho=0.6)
    return WorkloadTrace("idle", _clip(base))


SUITE_TRACES: Dict[str, Tuple[Callable[..., WorkloadTrace], int]] = {
    "web": (web_server_trace, 1),
    "database": (database_trace, 2),
    "multimedia": (multimedia_trace, 3),
    "max-utilisation": (max_utilisation_trace, 4),
}
"""Each trace of the Section IV-A benchmark set: its generator and the
offset added to the suite seed."""


def paper_workload_suite(
    threads: int = 32, duration: int = 300, seed: int = 0
) -> Dict[str, WorkloadTrace]:
    """The benchmark set of Section IV-A.

    Returns the three named application classes plus the near-saturation
    benchmark; Fig. 6/7 statistics average over the application classes
    ("average case across all workloads") and single out the
    "maximum utilization" benchmark.
    """
    return {
        name: generator(threads, duration, seed + offset)
        for name, (generator, offset) in SUITE_TRACES.items()
    }
