"""The host-normalized median estimator and the percentile helpers."""

import math
import statistics

import pytest
from pbench.common import count_beyond, fastest, median_by_key, percentile
from pbench.hostspeed import NOMINAL_S, HostSpeed


def drift(count, period, slowdown, phase=0):
    """Slowness of a host over ``count`` repetitions: 1 = full speed.

    Up to ``slowdown`` slower, varying with ``period`` repetitions, the
    pattern measured on a small shared VM.
    """
    return [
        1.0 + 0.5 * slowdown * (1.0 - math.cos(2.0 * math.pi * t / period))
        for t in range(phase, phase + count)
    ]


def normalized_run(unit_s, slowness):
    """The estimator on one run: each repetition follows a kernel sample."""
    host = HostSpeed()
    host.samples = [NOMINAL_S * s for s in slowness]
    jobs = [unit_s * s for s in slowness]
    typical = median_by_key({"job": jobs})["job"]
    raw = {"solve_s": typical, "throughput": 1.0 / typical, "peak_rss_mb": 150.0}
    return jobs, host.normalize_metrics(raw)


def test_median_over_kernel_median_cancels_a_slow_spell():
    quiet_jobs, quiet = normalized_run(0.2, drift(12, period=6, slowdown=0.2))
    # A slow spell that lasts the whole run: full speed is never reached.
    busy_jobs, busy = normalized_run(0.2, [1.3 * s for s in drift(12, 6, 0.6, 2)])
    assert busy == pytest.approx(quiet)
    assert quiet["solve_s"] == pytest.approx(0.2)
    assert busy["peak_rss_mb"] == 150.0
    assert fastest(busy_jobs) / fastest(quiet_jobs) > 1.25
    assert statistics.median(busy_jobs) / statistics.median(quiet_jobs) > 1.4


def test_program_speed_shows_in_full():
    slowness = drift(10, period=5, slowdown=0.4)
    _, before = normalized_run(0.2, slowness)
    _, after = normalized_run(0.15, slowness)
    assert after["solve_s"] / before["solve_s"] == pytest.approx(0.75)
    assert after["throughput"] / before["throughput"] == pytest.approx(1 / 0.75)


def test_kernel_samples_and_empty_inputs():
    host = HostSpeed()
    host.sample(repeats=2)
    host.sample(repeats=2)
    assert len(host.samples) == 2 and host.typical() > 0.0
    with pytest.raises(ValueError):
        HostSpeed().typical()
    with pytest.raises(ValueError):
        fastest([])
    assert median_by_key({"a": [3.0, 1.0, 2.0], "b": [5.0]}) == {"a": 2.0, "b": 5.0}


def test_percentile_interpolates_between_ranks():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(values, 0.0) == 1.0
    assert percentile(values, 0.5) == 3.0
    assert percentile(values, 1.0) == 5.0
    assert percentile(values, 0.9) == pytest.approx(4.6)
    assert percentile([7.0], 0.9) == 7.0
    with pytest.raises(ValueError):
        percentile(values, 1.5)


def test_p90_of_a_hundred_samples_has_ten_beyond_it():
    values = [float(i) for i in range(1, 101)]
    assert count_beyond(values, percentile(values, 0.9)) == 10
