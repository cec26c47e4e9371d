"""Perf microbenchmarks of the vectorised thermal-model hot path.

Tracks the operations optimised by the assembly/injection/sweep work so
regressions surface in the pytest-benchmark history:

* model assembly at the calibration grid (2- and 4-tier),
* a steady solve hitting the flow-keyed factorisation cache,
* a packed-array transient step,
* assembly of a 100x100 4-tier model (the "large grids become
  practical" criterion; set ``REPRO_BENCH_LARGE=0`` to skip).

``python -m repro bench-thermal`` measures the same path with the
committed seed baseline for an absolute before/after ratio
(``BENCH_thermal.json``); these tests give the relative, per-commit
trajectory.
"""

import os
import time

import pytest

from repro.geometry import build_3d_mpsoc
from repro.thermal import CompactThermalModel, TransientStepper


@pytest.mark.parametrize("tiers", [2, 4])
def test_assembly(benchmark, tiers):
    stack = build_3d_mpsoc(tiers)
    CompactThermalModel(stack)  # warm any geometry-level caches
    model = benchmark(lambda: CompactThermalModel(stack))
    assert model.grid.size > 0


def test_steady_solve_cached_factor(benchmark):
    model = CompactThermalModel(build_3d_mpsoc(4))
    powers = {ref: 2.0 for ref in model.block_order}
    model.steady_state(powers)  # factorise once
    field = benchmark(lambda: model.steady_state(powers))
    assert model.steady_cache_info().misses == 1
    assert field.values.max() > 300.0


def test_transient_step_packed(benchmark):
    model = CompactThermalModel(build_3d_mpsoc(4))
    powers = {ref: 2.0 for ref in model.block_order}
    stepper = TransientStepper(model, 0.1, model.steady_state(powers))
    packed = model.pack_powers(powers)
    stepper.step_packed(packed)  # factorise once
    benchmark(lambda: stepper.step_packed(packed))
    assert model.transient_cache_info().misses == 1


@pytest.mark.skipif(
    os.environ.get("REPRO_BENCH_LARGE", "1") == "0",
    reason="large-grid sample disabled via REPRO_BENCH_LARGE=0",
)
def test_assembly_large_grid():
    # Timed here, not by pytest-benchmark, whose stats are None when
    # benchmarking is off (--benchmark-disable).
    stack = build_3d_mpsoc(4)
    times = []
    for _ in range(3):
        start = time.perf_counter()
        model = CompactThermalModel(stack, nx=100, ny=100)
        times.append(time.perf_counter() - start)
    # The acceptance criterion: 100x100 4-tier well under ~2 s.
    assert sum(times) / len(times) < 2.0
    assert model.grid.size >= 100 * 100 * len(model.stack.elements)
