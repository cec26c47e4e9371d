"""Temperature-dependent leakage."""

import math

import pytest

from repro.geometry import CoolingMode, build_3d_mpsoc
from repro.power import LeakageModel, PowerModel
from repro.power.leakage import CORE_LEAKAGE
from repro.units import celsius_to_kelvin


def test_reference_point_value():
    # 10 mm^2 core leaks 0.8 W at the 85 degC reference.
    assert CORE_LEAKAGE.power(10e-6, celsius_to_kelvin(85.0)) == pytest.approx(0.8)


def test_exponential_temperature_dependence():
    model = LeakageModel(density_at_ref=1e4, beta=0.015)
    t0 = celsius_to_kelvin(85.0)
    ratio = model.power(1e-6, t0 + 20.0) / model.power(1e-6, t0)
    assert ratio == pytest.approx(math.exp(0.015 * 20.0))


def test_leakage_scales_with_area():
    model = LeakageModel(density_at_ref=1e4)
    t = celsius_to_kelvin(70.0)
    assert model.power(2e-6, t) == pytest.approx(2 * model.power(1e-6, t))


def test_voltage_scaling():
    t = celsius_to_kelvin(85.0)
    full = CORE_LEAKAGE.power(10e-6, t, voltage_scale=1.0)
    scaled = CORE_LEAKAGE.power(10e-6, t, voltage_scale=0.75)
    assert scaled == pytest.approx(0.75 * full)


def test_saturation_prevents_runaway():
    """Above the clamp the leakage stops growing — this is what keeps the
    4-tier air-cooled runaway case (Section IV-A, 178 degC) bounded."""
    t_clamp = CORE_LEAKAGE.saturation_k
    at_clamp = CORE_LEAKAGE.power(10e-6, t_clamp)
    way_above = CORE_LEAKAGE.power(10e-6, t_clamp + 100.0)
    assert way_above == pytest.approx(at_clamp)


def test_leakage_fraction_reasonable_at_threshold():
    # ~15 % of a ~5 W core at the 85 degC threshold (90 nm budget).
    leak = CORE_LEAKAGE.power(10e-6, celsius_to_kelvin(85.0))
    assert 0.1 < leak / 5.0 < 0.25


def test_validation():
    with pytest.raises(ValueError):
        LeakageModel(density_at_ref=-1.0)
    with pytest.raises(ValueError):
        CORE_LEAKAGE.power(-1.0, 300.0)
    with pytest.raises(ValueError):
        CORE_LEAKAGE.power(1e-6, 300.0, voltage_scale=0.0)
    with pytest.raises(ValueError):
        CORE_LEAKAGE.power(1e-6, -5.0)


def _reference_block_powers(model, utilisation, vf_settings, temperatures):
    """The per-block powers as the per-kind formulas spell them out."""
    table = model.vf_table
    mean_util = sum(utilisation[r] for r in model.core_refs) / len(model.core_refs)
    powers = {}
    for layer, block in model.stack.iter_blocks():
        ref = (layer.name, block.name)
        params = model.kind_parameters[block.kind]
        temp = temperatures[ref]
        law = params.leakage
        if ref in utilisation:
            vf = vf_settings[ref]
            util = utilisation[ref]
            dyn, leak = table.dynamic_scale(vf), table.leakage_scale(vf)
        else:
            util, dyn, leak = mean_util, 1.0, 1.0
        area = block.area
        dynamic = (params.idle_density + util * params.active_density) * area * dyn
        effective_k = min(temp, law.saturation_k)
        leakage = (
            law.density_at_ref * area * leak
            * math.exp(law.beta * (effective_k - law.reference_k))
        )
        powers[ref] = dynamic + leakage
    return powers


@pytest.mark.parametrize("offset_k", [-40.0, -1e-9, 0.0, 1e-9, 35.0])
def test_power_model_leakage_is_the_law_bitwise(offset_k):
    """Every VF index (and two out of range), temperatures on both sides
    of the saturation clamp: block_powers equals the written-out law."""
    power_model = PowerModel(build_3d_mpsoc(4, CoolingMode.LIQUID))
    cores = power_model.core_refs
    sat_k = CORE_LEAKAGE.saturation_k
    temperatures = {
        (layer.name, block.name): sat_k + offset_k + 0.37 * i
        for i, (layer, block) in enumerate(power_model.stack.iter_blocks())
    }
    utilisation = {ref: (i % 5) / 4.0 for i, ref in enumerate(cores)}
    for vf in range(-1, len(power_model.vf_table) + 1):
        vf_settings = {ref: vf for ref in cores}
        got = power_model.block_powers(utilisation, vf_settings, temperatures)
        want = _reference_block_powers(
            power_model, utilisation, vf_settings, temperatures
        )
        assert list(got) == list(want)
        assert [v.hex() for v in got.values()] == [v.hex() for v in want.values()]
