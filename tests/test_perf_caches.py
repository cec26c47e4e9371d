"""Caching, packed-power fast path, and assembly regression tests.

Covers the performance plumbing added around the thermal model: the
steady-factor LRU cache (keyed on flow signatures, so flow changes can
never serve stale factorisations), the transient stepper's factor
cache statistics, the packed power-injection fast path, and the
capacitance-fill regression with equal-comparing stack elements.
"""

import numpy as np
import pytest

from repro.geometry import build_3d_mpsoc
from repro.geometry.stack import Layer
from repro.thermal import CompactThermalModel, TransientStepper, ladder


def _model(tiers: int = 2, **kwargs) -> CompactThermalModel:
    return CompactThermalModel(build_3d_mpsoc(tiers), nx=12, ny=10, **kwargs)


def _powers(model: CompactThermalModel) -> dict:
    return {ref: 2.0 for ref in model.block_order}


# ---------------------------------------------------------------------------
# capacitance fill with equal-comparing elements
# ---------------------------------------------------------------------------


def test_identical_layers_capacitance_regression():
    """Two equal-comparing layers must both receive their capacitance.

    ``StackDesign`` validates name uniqueness only at construction, so a
    mutated design can hold two equal elements.  A ``list.index``-based
    level lookup resolves both to the *first* occurrence and leaves the
    second level's capacitance at zero; the enumerate-based fill must
    assign every level.
    """
    stack = build_3d_mpsoc(2)
    die_levels = [
        level
        for level, element in enumerate(stack.elements)
        if isinstance(element, Layer) and element.name.endswith("_die")
    ]
    assert len(die_levels) >= 2
    first, last = die_levels[0], die_levels[-1]
    stack.elements[last] = stack.elements[first]
    assert stack.elements[last] == stack.elements[first]

    model = CompactThermalModel(stack, nx=8, ny=6)
    duplicated = stack.elements[last]
    expected = (
        duplicated.material.vol_heat_capacity
        * model.grid.cell_area
        * duplicated.thickness
    )
    filled = model.capacitance[model.grid.level_slice(last)]
    assert np.all(filled == expected)
    assert np.all(model.capacitance > 0.0)


# ---------------------------------------------------------------------------
# steady-factor cache
# ---------------------------------------------------------------------------


def test_steady_cache_counts_hits_and_misses():
    model = _model()
    powers = _powers(model)
    model.steady_state(powers)
    assert model.steady_cache_info()[:2] == (0, 1)
    model.steady_state(powers)
    assert model.steady_cache_info()[:2] == (1, 1)
    assert model.steady_cache_info().currsize == 1


def test_set_flow_never_serves_stale_factors():
    model = _model()
    powers = _powers(model)
    hot = model.steady_state(powers).values
    model.set_flow(model.flow_ml_min / 4.0)
    throttled = model.steady_state(powers).values
    # Lower flow must heat the stack up — a stale factor would not.
    assert throttled.max() > hot.max() + 1.0
    assert model.steady_cache_info()[:2] == (0, 2)
    # Returning to the original flow hits the first factor again and
    # reproduces the original field bitwise.
    model.set_flow(model.flow_ml_min * 4.0)
    again = model.steady_state(powers).values
    assert model.steady_cache_info()[:2] == (1, 2)
    assert np.array_equal(again, hot)


def test_uniform_override_and_signature_keys_coexist():
    model = _model()
    powers = _powers(model)
    a = model.steady_state(powers, flow_ml_min=50.0)
    b = model.steady_state(powers, flow_ml_min=50.0)
    assert np.array_equal(a.values, b.values)
    info = model.steady_cache_info()
    assert info.hits == 1 and info.misses == 1
    # The stored per-cavity state is untouched by the override.
    model.steady_state(powers)
    assert model.steady_cache_info().misses == 2


def test_steady_cache_lru_eviction(monkeypatch):
    monkeypatch.setattr(ladder, "MAX_STEADY_FACTORS", 2)
    model = _model()
    powers = _powers(model)
    for flow in (20.0, 40.0, 60.0):
        model.steady_state(powers, flow_ml_min=flow)
    info = model.steady_cache_info()
    assert info.misses == 3 and info.currsize == 2
    # 20 ml/min was evicted; 60 ml/min is still cached.
    model.steady_state(powers, flow_ml_min=60.0)
    assert model.steady_cache_info().hits == 1
    model.steady_state(powers, flow_ml_min=20.0)
    assert model.steady_cache_info().misses == 4


def test_per_cavity_flow_changes_cache_key():
    model = _model(tiers=4)
    cavities = sorted(model.cavity_flows)
    assert len(cavities) >= 2
    powers = _powers(model)
    uniform = model.steady_state(powers).values
    model.set_cavity_flow(cavities[0], model.cavity_flows[cavities[0]] / 5.0)
    starved = model.steady_state(powers).values
    assert not np.array_equal(uniform, starved)
    assert model.steady_cache_info().misses == 2
    # Restoring the flow recovers the uniform signature -> cache hit.
    model.set_flow(max(model.cavity_flows.values()))
    assert np.array_equal(model.steady_state(powers).values, uniform)
    assert model.steady_cache_info().hits == 1


def test_steady_cache_size_counts_every_tier():
    from repro.obs.metrics import get_registry

    model = _model(solver="amg")
    powers = _powers(model)
    for flow in (10.0, 20.0, 30.0):
        model.set_flow(flow)
        model.steady_state(powers)
    assert model.steady_cache_info().currsize == 3
    assert get_registry().gauge("thermal.steady_cache.currsize").value == 3


def test_clear_steady_cache_resets_statistics():
    model = _model()
    model.steady_state(_powers(model))
    model.clear_steady_cache()
    info = model.steady_cache_info()
    assert info == (0, 0, 0, info.maxsize)


# ---------------------------------------------------------------------------
# transient stepper cache and packed fast path
# ---------------------------------------------------------------------------


def test_stepper_cache_info_counts():
    model = _model()
    powers = _powers(model)
    stepper = TransientStepper(model, 0.1, model.uniform_field(300.0))
    stepper.step(powers)
    stepper.step(powers)
    assert model.transient_cache_info()[:2] == (1, 1)
    model.set_flow(model.flow_ml_min / 2.0)
    stepper.step(powers)
    info = model.transient_cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 2, 2)
    # A second stepper (a second run) on the model reuses its factors.
    model.set_flow(model.flow_ml_min * 2.0)
    TransientStepper(model, 0.1, model.uniform_field(300.0)).step(powers)
    assert model.transient_cache_info()[:3] == (2, 2, 2)


def test_stepper_cache_eviction_bound(monkeypatch):
    monkeypatch.setattr(ladder, "MAX_TRANSIENT_FACTORS", 1)
    model = _model()
    powers = _powers(model)
    stepper = TransientStepper(model, 0.1, model.uniform_field(300.0))
    base_flow = model.flow_ml_min
    for flow in (base_flow, base_flow / 2.0, base_flow):
        model.set_flow(flow)
        stepper.step(powers)
    info = model.transient_cache_info()
    # Only one slot: the ping-pong refactorises every time.
    assert (info.hits, info.misses, info.currsize) == (0, 3, 1)


def test_step_packed_matches_dict_step_bitwise():
    model = _model()
    powers = {ref: float(p) for ref, p in zip(
        model.block_order,
        np.random.default_rng(3).uniform(0.5, 5.0, len(model.block_order)),
    )}
    initial = model.uniform_field(305.0)
    by_dict = TransientStepper(model, 0.1, initial)
    by_packed = TransientStepper(model, 0.1, initial)
    packed = model.pack_powers(powers)
    for _ in range(5):
        by_dict.step(powers)
        by_packed.step_packed(packed)
    assert np.array_equal(by_dict.state.values, by_packed.state.values)


def test_pack_powers_validates_and_accumulates():
    model = _model()
    ref = model.block_order[0]
    packed = model.pack_powers({ref: 1.5})
    assert packed[0] == 1.5 and packed[1:].sum() == 0.0
    with pytest.raises(KeyError):
        model.pack_powers({("nope", "nothing"): 1.0})
    with pytest.raises(ValueError):
        model.pack_powers({ref: -2.0})
    with pytest.raises(ValueError):
        model.power_vector_packed(np.zeros(len(model.block_order) + 1))


# ---------------------------------------------------------------------------
# LU cache gauges
# ---------------------------------------------------------------------------


def test_cache_occupancy_gauges_track_inserts_and_evictions(monkeypatch):
    from repro.obs.metrics import get_registry

    registry = get_registry()
    monkeypatch.setattr(ladder, "MAX_STEADY_FACTORS", 1)
    monkeypatch.setattr(ladder, "MAX_TRANSIENT_FACTORS", 2)
    model = _model()
    assert registry.gauge("thermal.steady_cache.maxsize").value == 1
    assert registry.gauge("thermal.transient_cache.maxsize").value == 2
    powers = _powers(model)
    model.steady_state(powers)
    assert registry.gauge("thermal.steady_cache.currsize").value == 1
    model.set_flow(model.flow_ml_min / 2.0)
    model.steady_state(powers)
    # One-slot cache: eviction keeps occupancy at the bound.
    assert registry.gauge("thermal.steady_cache.currsize").value == 1
    model.clear_steady_cache()
    assert registry.gauge("thermal.steady_cache.currsize").value == 0

    stepper = TransientStepper(model, 0.1, model.uniform_field(300.0))
    stepper.step(powers)
    assert registry.gauge("thermal.transient_cache.currsize").value == 1


# ---------------------------------------------------------------------------
# dynamic two-phase step: one spmv, cached profiles and anchor deltas
# ---------------------------------------------------------------------------


def _two_phase_model() -> CompactThermalModel:
    import dataclasses
    from pathlib import Path

    from repro.scenario import Scenario
    from repro.scenario.runner import build_model

    spec = Path(__file__).resolve().parents[1] / "examples/specs/two_tier_twophase.json"
    scenario = Scenario.load(spec)
    return build_model(
        dataclasses.replace(
            scenario, solver=dataclasses.replace(scenario.solver, nx=12, ny=10)
        )
    )


class _CountingOperator:
    """Injection operator stand-in that counts its spmvs."""

    def __init__(self, inner):
        self.inner = inner
        self.shape = inner.shape
        self.calls = 0

    def __matmul__(self, vector):
        self.calls += 1
        return self.inner @ vector


def test_cooling_update_hands_its_power_vector_to_the_step(monkeypatch):
    model = _two_phase_model()
    operator = _CountingOperator(model.injection_operator())
    monkeypatch.setattr(model, "injection_operator", lambda: operator)
    stepper = TransientStepper(model, 0.1, model.uniform_field(300.0))
    packed = model.pack_powers(_powers(model))

    model.update_cooling(packed, 0.0)
    stepper.step_packed(packed)
    assert operator.calls == 1  # the step reused the update's vector
    stepper.step_packed(packed)
    assert operator.calls == 2  # handed over once only

    # Other powers than the update's are never served its vector.
    model.update_cooling(packed, 0.1)
    other = 2.0 * packed
    assert np.array_equal(
        model.power_vector_packed(other), operator.inner @ other
    )
    assert operator.calls == 4


def test_march_cache_hits_share_one_read_only_profile():
    model = _two_phase_model()
    (name,) = model.cooled_cavity_names
    backend = model.cooling_backend(name)
    flux = np.full(model.grid.nx, 2.0e5)
    profile = backend.respond_to_flow(20.0, flux)
    assert backend.respond_to_flow(20.0, flux) is profile
    assert not profile.flags.writeable


def test_reset_drops_a_march_another_flux_put_in_the_cache():
    # A cached march is the march of the first flux that landed in its
    # quantised key.  A reused model must not serve it to the next run:
    # after the reset, a flux 30 W/m^2 away (inside the 100 W/m^2
    # quantum) gets its own march, as on a fresh model.
    model = _two_phase_model()
    (name,) = model.cooled_cavity_names
    backend = model.cooling_backend(name)
    first = backend.respond_to_flow(20.0, np.full(model.grid.nx, 2.0e5))
    model.reset_run_state()
    backend = model.cooling_backend(name)
    nudged = np.full(model.grid.nx, 2.0e5 + 30.0)
    again = backend.respond_to_flow(20.0, nudged)
    fresh = _two_phase_model().cooling_backend(name).respond_to_flow(20.0, nudged)
    assert np.array_equal(again, fresh)
    assert not np.array_equal(first, fresh)
    assert backend.hydraulic_state().cache[:3] == (0, 1, 1)
