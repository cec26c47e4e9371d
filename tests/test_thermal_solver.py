"""Transient stepping: convergence, caching, dynamics."""

import numpy as np
import pytest

import repro.thermal.model as model_module
from repro.keyed_cache import KeyedCache
from repro.thermal import CompactThermalModel, TransientStepper
from repro.thermal.reference import dense_transient


def core_powers(stack, watts=5.0):
    return {
        (layer.name, block.name): watts
        for layer, block in stack.iter_blocks()
        if block.kind == "core"
    }


def test_transient_converges_to_steady_state(liquid_model_coarse, liquid_stack_2tier):
    model = liquid_model_coarse
    powers = core_powers(liquid_stack_2tier)
    steady = model.steady_state(powers)
    stepper = TransientStepper(model, dt=0.1, initial=model.uniform_field(300.15))
    stepper.run(powers, duration=60.0)
    assert np.allclose(stepper.state.values, steady.values, atol=0.05)


def test_constant_power_from_steady_state_stays_put(
    liquid_model_coarse, liquid_stack_2tier
):
    model = liquid_model_coarse
    powers = core_powers(liquid_stack_2tier)
    steady = model.steady_state(powers)
    stepper = TransientStepper(model, dt=0.1, initial=steady)
    stepper.run(powers, duration=1.0)
    assert np.allclose(stepper.state.values, steady.values, atol=1e-6)


def test_step_matches_dense_reference(liquid_model_coarse, liquid_stack_2tier):
    model = liquid_model_coarse
    powers = core_powers(liquid_stack_2tier)
    initial = model.uniform_field(310.0)
    stepper = TransientStepper(model, dt=0.1, initial=initial)
    for _ in range(5):
        stepper.step(powers)
    dense = dense_transient(model, powers, initial, dt=0.1, steps=5)
    assert np.allclose(stepper.state.values, dense.values, rtol=1e-8, atol=1e-7)


def test_temperature_rises_monotonically_under_step_load(
    liquid_model_coarse, liquid_stack_2tier
):
    model = liquid_model_coarse
    powers = core_powers(liquid_stack_2tier)
    stepper = TransientStepper(model, dt=0.1, initial=model.uniform_field(300.15))
    maxima = []
    for _ in range(20):
        maxima.append(stepper.step(powers).max())
    assert all(b >= a - 1e-9 for a, b in zip(maxima, maxima[1:]))


def test_lu_cache_one_factor_per_flow_setting(liquid_stack_2tier):
    model = CompactThermalModel(liquid_stack_2tier, nx=12, ny=10)
    powers = core_powers(liquid_stack_2tier)
    stepper = TransientStepper(model, dt=0.1, initial=model.uniform_field(300.15))
    for flow in (10.0, 20.0, 32.3, 10.0, 32.3, 20.0):
        model.set_flow(flow)
        stepper.step(powers)
    assert model.transient_cache_info().currsize == 3


def test_lru_eviction_bounds_cache(liquid_stack_2tier, monkeypatch):
    monkeypatch.setattr(model_module, "MAX_TRANSIENT_FACTORS", 2)
    model = CompactThermalModel(liquid_stack_2tier, nx=12, ny=10)
    powers = core_powers(liquid_stack_2tier)
    stepper = TransientStepper(model, dt=0.1, initial=model.uniform_field(300.15))
    for flow in (10.0, 15.0, 20.0, 25.0):
        model.set_flow(flow)
        stepper.step(powers)
    assert model.transient_cache_info().currsize == 2


def test_time_advances(liquid_model_coarse, liquid_stack_2tier):
    model = liquid_model_coarse
    stepper = TransientStepper(model, dt=0.25, initial=model.uniform_field(300.15))
    stepper.run(core_powers(liquid_stack_2tier), duration=1.0)
    assert stepper.time == pytest.approx(1.0)
    assert stepper.state.time == pytest.approx(1.0)


def test_invalid_parameters_rejected(liquid_model_coarse):
    with pytest.raises(ValueError):
        TransientStepper(
            liquid_model_coarse, dt=0.0, initial=liquid_model_coarse.uniform_field(300.0)
        )
    with pytest.raises(ValueError):
        KeyedCache(0)


def test_air_sink_time_constant_visible(air_model_coarse, air_stack_2tier):
    """The 140 J/K sink dominates the air-cooled transient (~14 s RC)."""
    model = air_model_coarse
    powers = core_powers(air_stack_2tier)
    stepper = TransientStepper(model, dt=0.5, initial=model.uniform_field(model.ambient))
    stepper.run(powers, duration=5.0)
    early_sink = stepper.state.sink_temperature()
    stepper.run(powers, duration=60.0)
    late_sink = stepper.state.sink_temperature()
    # After 5 s the sink is still far from its final value.
    assert late_sink - model.ambient > 1.5 * (early_sink - model.ambient)
