"""Compact thermal model: physics and conservation properties."""

import numpy as np
import pytest

from repro import constants
from repro.geometry import build_3d_mpsoc, CoolingMode
from repro.thermal import CompactThermalModel, dense_steady_state
from repro.units import celsius_to_kelvin


def core_powers(stack, watts=5.0):
    return {
        (layer.name, block.name): watts
        for layer, block in stack.iter_blocks()
        if block.kind == "core"
    }


# ---------------------------------------------------------------------------
# conservation and correctness
# ---------------------------------------------------------------------------


def test_liquid_steady_state_conserves_energy(liquid_model_coarse, liquid_stack_2tier):
    powers = core_powers(liquid_stack_2tier)
    field = liquid_model_coarse.steady_state(powers)
    removed = liquid_model_coarse.heat_removed_by_coolant(field)
    assert removed == pytest.approx(sum(powers.values()), rel=1e-9)


def test_energy_closes_under_a_flow_override(liquid_stack_2tier):
    model = CompactThermalModel(liquid_stack_2tier, nx=12, ny=10)
    # The solve runs at 15 ml/min; the model keeps its stored 32.3.
    powers = {ref: 2.0 for ref in model.block_order}
    field = model.steady_state(powers, 15.0)
    removed = model.heat_removed_by_coolant(field, 15.0)
    removed += model.heat_removed_by_sink(field)
    assert removed == pytest.approx(sum(powers.values()), rel=1e-9)


def test_air_steady_state_conserves_energy(air_model_coarse, air_stack_2tier):
    powers = core_powers(air_stack_2tier)
    field = air_model_coarse.steady_state(powers)
    removed = air_model_coarse.heat_removed_by_sink(field)
    assert removed == pytest.approx(sum(powers.values()), rel=1e-9)


def test_sparse_matches_dense_reference(liquid_model_coarse, liquid_stack_2tier):
    powers = core_powers(liquid_stack_2tier)
    sparse = liquid_model_coarse.steady_state(powers)
    dense = dense_steady_state(liquid_model_coarse, powers)
    assert np.allclose(sparse.values, dense.values, rtol=1e-8, atol=1e-8)


def test_zero_power_settles_at_boundary_temperatures(liquid_model_coarse):
    field = liquid_model_coarse.steady_state({})
    assert np.allclose(
        field.values, liquid_model_coarse.inlet_temperature, atol=1e-6
    )


def test_zero_power_air_settles_at_ambient(air_model_coarse):
    field = air_model_coarse.steady_state({})
    assert np.allclose(field.values, air_model_coarse.ambient, atol=1e-6)


def test_all_temperatures_above_boundary(liquid_model_coarse, liquid_stack_2tier):
    field = liquid_model_coarse.steady_state(core_powers(liquid_stack_2tier))
    assert field.values.min() >= liquid_model_coarse.inlet_temperature - 1e-9


# ---------------------------------------------------------------------------
# physical behaviour
# ---------------------------------------------------------------------------


def test_higher_flow_lower_peak(liquid_model_coarse, liquid_stack_2tier):
    powers = core_powers(liquid_stack_2tier)
    hot = liquid_model_coarse.steady_state(powers, flow_ml_min=10.0)
    cold = liquid_model_coarse.steady_state(powers, flow_ml_min=32.3)
    assert cold.max() < hot.max()


def test_fluid_heats_downstream(liquid_model_coarse, liquid_stack_2tier):
    powers = core_powers(liquid_stack_2tier)
    field = liquid_model_coarse.steady_state(powers)
    cavity = field.layer("cavity0")
    inlet_column = cavity[:, 0].mean()
    outlet_column = cavity[:, -1].mean()
    assert outlet_column > inlet_column


def test_bulk_fluid_rise_matches_power_balance(liquid_model_coarse, liquid_stack_2tier):
    """Outlet mean rise = P / (mdot cp): the 40 K@130 W scaling of II-C."""
    powers = core_powers(liquid_stack_2tier)
    total = sum(powers.values())
    model = liquid_model_coarse
    field = model.steady_state(powers)
    cavity = field.layer("cavity0")
    capacity = model._capacity_rate_per_row(model.flow_ml_min) * model.grid.ny
    expected_rise = total / capacity
    actual_rise = cavity[:, -1].mean() - model.inlet_temperature
    # Mean outlet fluid temperature reflects the full absorbed power.
    assert actual_rise == pytest.approx(expected_rise, rel=0.05)


def test_hotter_with_more_power(air_model_coarse, air_stack_2tier):
    low = air_model_coarse.steady_state(core_powers(air_stack_2tier, 2.0))
    high = air_model_coarse.steady_state(core_powers(air_stack_2tier, 6.0))
    assert high.max() > low.max()


def test_air_peak_sits_on_source_layer(air_model_coarse, air_stack_2tier):
    field = air_model_coarse.steady_state(core_powers(air_stack_2tier))
    peak = field.max()
    core_layers = [layer.name for layer in air_stack_2tier.source_layers]
    layer_maxima = [field.layer(name).max() for name in core_layers]
    assert max(layer_maxima) == pytest.approx(peak)


def test_liquid_4tier_cooler_than_2tier_at_equal_per_tier_power():
    """The paper's observation: more cavities keep the 4-tier stack cooler."""
    m2 = CompactThermalModel(build_3d_mpsoc(2), nx=12, ny=10)
    m4 = CompactThermalModel(build_3d_mpsoc(4), nx=12, ny=10)
    f2 = m2.steady_state(core_powers(m2.stack))
    f4 = m4.steady_state(core_powers(m4.stack))
    assert f4.max() < f2.max()


def test_air_4tier_much_hotter_than_2tier():
    m2 = CompactThermalModel(build_3d_mpsoc(2, CoolingMode.AIR), nx=12, ny=10)
    m4 = CompactThermalModel(build_3d_mpsoc(4, CoolingMode.AIR), nx=12, ny=10)
    f2 = m2.steady_state(core_powers(m2.stack))
    f4 = m4.steady_state(core_powers(m4.stack))
    assert f4.max() - celsius_to_kelvin(0.0) > 1.5 * (
        f2.max() - celsius_to_kelvin(0.0)
    )


# ---------------------------------------------------------------------------
# interface behaviour
# ---------------------------------------------------------------------------


def test_unknown_block_rejected(liquid_model_coarse):
    with pytest.raises(KeyError):
        liquid_model_coarse.power_vector({("tier0_die", "gpu99"): 1.0})


def test_negative_power_rejected(liquid_model_coarse, liquid_stack_2tier):
    ref = liquid_stack_2tier.block_refs()[0]
    with pytest.raises(ValueError):
        liquid_model_coarse.power_vector({ref: -1.0})


def test_power_vector_total_preserved(liquid_model_coarse, liquid_stack_2tier):
    powers = core_powers(liquid_stack_2tier, 3.3)
    vec = liquid_model_coarse.power_vector(powers)
    assert vec.sum() == pytest.approx(sum(powers.values()), rel=1e-12)


def test_set_flow_validation(liquid_model_coarse):
    with pytest.raises(ValueError):
        liquid_model_coarse.set_flow(0.0)


def test_flow_default_is_table_i_maximum(liquid_stack_2tier):
    model = CompactThermalModel(liquid_stack_2tier, nx=12, ny=10)
    assert model.flow_ml_min == constants.FLOW_RATE_MAX_ML_MIN


def test_block_masks_cover_source_layers(liquid_model_coarse, liquid_stack_2tier):
    masks = liquid_model_coarse.block_masks()
    for layer in liquid_stack_2tier.source_layers:
        layer_masks = [m for (ln, _), m in masks.items() if ln == layer.name]
        union = np.zeros_like(layer_masks[0], dtype=int)
        for m in layer_masks:
            union += m.astype(int)
        assert (union == 1).all()  # exact partition of the die
