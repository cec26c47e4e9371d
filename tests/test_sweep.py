"""The sweep engine: batched steady solves and simulation fan-out."""

import numpy as np
import pytest

from repro.analysis import (
    SteadyCase,
    SteadySweep,
    fan_out,
    run_simulations,
)
from repro.geometry import build_3d_mpsoc
from repro.scenario import (
    PolicySpec,
    Scenario,
    SolverSpec,
    StackSpec,
    WorkloadSpec,
)
from repro.thermal import CompactThermalModel


def _cases(model, flows):
    rng = np.random.default_rng(2)
    cases = []
    for k, flow in enumerate(flows):
        powers = {
            ref: float(p)
            for ref, p in zip(
                model.block_order,
                rng.uniform(0.5, 4.0, len(model.block_order)),
            )
        }
        cases.append(SteadyCase(block_powers=powers, flow_ml_min=flow))
    return cases


def test_steady_sweep_matches_point_by_point_bitwise():
    model = CompactThermalModel(build_3d_mpsoc(2), nx=12, ny=10)
    cases = _cases(model, [None, 30.0, 30.0, 55.0, None, 55.0])
    swept = SteadySweep(model).solve(cases)
    for case, field in zip(cases, swept):
        direct = model.steady_state(dict(case.block_powers), case.flow_ml_min)
        assert np.array_equal(field.values, direct.values)


def test_steady_sweep_factorises_once_per_flow():
    model = CompactThermalModel(build_3d_mpsoc(2), nx=12, ny=10)
    sweep = SteadySweep(model)
    sweep.solve(_cases(model, [20.0, 20.0, 20.0, 45.0, 45.0, None]))
    info = model.steady_cache_info()
    # Three distinct flow states, six cases: three factorisations.
    assert info.misses == 3
    # A repeat sweep is all cache hits.
    sweep.solve(_cases(model, [20.0, 45.0, None]))
    assert model.steady_cache_info().misses == 3


def test_peak_temperatures_monotonic_in_flow():
    model = CompactThermalModel(build_3d_mpsoc(2), nx=12, ny=10)
    powers = {ref: 3.0 for ref in model.block_order}
    flows = [15.0, 30.0, 60.0, 120.0]
    peaks = SteadySweep(model).peak_temperatures(
        [SteadyCase(powers, flow) for flow in flows]
    )
    assert np.all(np.diff(peaks) < 0.0)  # more coolant, cooler stack


def _square(x):
    return x * x


def test_fan_out_orders_and_parallelises():
    items = list(range(8))
    serial = fan_out(_square, items)
    assert serial == [x * x for x in items]
    parallel = fan_out(_square, items, processes=2)
    assert parallel == serial


@pytest.mark.parametrize("processes", [None, 2])
def test_run_simulations_fan_out(processes):
    jobs = [
        Scenario(
            stack=StackSpec(tiers=2, cooling="liquid"),
            workload=WorkloadSpec(name=workload, duration=2),
            policy=PolicySpec(name="LC_LB"),
            solver=SolverSpec(nx=12, ny=10),
            label=workload,
        )
        for workload in ("web", "database")
    ]
    results = run_simulations(jobs, processes=processes)
    assert [key for key, _ in results] == ["web", "database"]
    for key, result in results:
        assert result.workload == key
        assert result.duration == pytest.approx(2.0)
        assert result.peak_temperature_c > 27.0
