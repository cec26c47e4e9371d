"""The pluggable cooling-backend layer (``repro.cooling``).

Covers the backend dispatch, the single-phase HTC dedupe,
the dynamic two-phase coupling (Fig. 8 fidelity, LRU caching, dry-out
taxonomy, fault forcing), the closed-loop actuation path, and the
hash-stability contract: specs written before the cooling layer keep
byte-identical ``content_hash`` / ``model_hash``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cooling import (
    TWO_PHASE_ANCHOR_W_PER_K,
    CoolingBackend,
    CoolingConfig,
    SinglePhaseLiquidBackend,
    TwoPhaseBackend,
    backend_for_cavity,
)
from repro.faults import DryoutFault, FaultScenario, run_fault_campaign
from repro.geometry.channels import MicroChannelGeometry
from repro.geometry.stack import Cavity, TwoPhaseCavity
from repro.heat_transfer.convection import cavity_effective_htc
from repro.scenario import (
    CoolingSpec,
    FaultSpec,
    FlowFaultSpec,
    Runner,
    Scenario,
    ScenarioError,
)
from repro.thermal import CompactThermalModel, CoolingDryoutError, ThermalSolveError
from repro.twophase import FIG8_VEHICLE

# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def fig8_cavity() -> TwoPhaseCavity:
    """A cavity whose backend evaporator matches the Fig. 8 vehicle."""
    evap = FIG8_VEHICLE.evaporator
    geometry = MicroChannelGeometry(
        width=evap.channel_width,
        height=evap.channel_height,
        pitch=evap.pitch,
        length=evap.length,
        span=(evap.channels + 0.5) * evap.pitch,
    )
    return TwoPhaseCavity(
        name="fig8",
        geometry=geometry,
        refrigerant=evap.refrigerant,
        saturation_k=FIG8_VEHICLE.inlet_saturation_k,
    )


def fig8_flow_ml_min(segments: int) -> float:
    """The vehicle's calibrated mass flow as a volumetric command."""
    from repro.units import ml_per_min_to_m3_per_s

    mass = FIG8_VEHICLE.operating_mass_flow(segments)
    rho = FIG8_VEHICLE.evaporator.refrigerant.liquid_density
    return mass / rho / ml_per_min_to_m3_per_s(1.0)


def fig8_flux() -> np.ndarray:
    flux = np.full(FIG8_VEHICLE.rows, FIG8_VEHICLE.background_flux)
    flux[2] = FIG8_VEHICLE.hotspot_flux
    return flux


def twophase_scenario(duration: int = 2, **stack_extra) -> Scenario:
    """A small, fast dynamic two-phase closed-loop scenario."""
    return Scenario.from_dict(
        {
            "stack": {
                "tiers": 2,
                "two_phase": True,
                "cooling_backend": {
                    "backend": "two_phase",
                    "refrigerant": "R245fa",
                },
                **stack_extra,
            },
            "workload": {"name": "web", "duration": duration},
            "policy": {"name": "LC_FUZZY"},
            "solver": {"nx": 12, "ny": 10},
        }
    )


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


def test_backend_for_cavity_dispatches_on_cavity_type(liquid_stack_2tier):
    cavity = next(
        e for e in liquid_stack_2tier.elements if isinstance(e, Cavity)
    )
    assert isinstance(backend_for_cavity(cavity), SinglePhaseLiquidBackend)
    assert isinstance(backend_for_cavity(fig8_cavity()), TwoPhaseBackend)


def test_single_phase_htc_matches_legacy_dispatch(liquid_stack_2tier):
    """The dedupe point: backend HTC == the formula model.py inlined."""
    cavity = next(
        e for e in liquid_stack_2tier.elements if isinstance(e, Cavity)
    )
    expected = cavity_effective_htc(
        cavity.geometry, cavity.coolant, cavity.wall_material
    )
    backend = SinglePhaseLiquidBackend(cavity)
    assert backend.effective_htc() == expected
    coupling = backend.fluid_coupling()
    assert coupling.kind == "advection"
    assert coupling.effective_htc == expected
    assert not backend.dynamic


def test_two_phase_static_coupling_exposes_anchor():
    cavity = fig8_cavity()
    backend = TwoPhaseBackend(cavity)
    coupling = backend.fluid_coupling()
    assert coupling.kind == "anchor"
    assert coupling.anchor_w_per_k == TWO_PHASE_ANCHOR_W_PER_K
    assert coupling.anchor_temperature_k == cavity.saturation_k
    assert not backend.dynamic  # default config is static


def test_base_backend_records_flow_and_resets(liquid_stack_2tier):
    assert CoolingBackend().hydraulic_state().flow_ml_min is None
    model = CompactThermalModel(liquid_stack_2tier, nx=12, ny=10)
    name = model.cooled_cavity_names[0]
    assert model.cooling_backend(name).respond_to_flow(42.0) is None
    assert model.cooling_backend(name).hydraulic_state().flow_ml_min == 42.0
    model.reset_run_state()
    assert model.cooling_backend(name).hydraulic_state().flow_ml_min is None


# ---------------------------------------------------------------------------
# Fig. 8 fidelity of the runtime backend
# ---------------------------------------------------------------------------


def test_runtime_backend_reproduces_fig8_profile():
    """The marching backend == the calibrated vehicle, row for row."""
    segments_per_row = 20
    segments = FIG8_VEHICLE.rows * segments_per_row
    backend = TwoPhaseBackend(
        fig8_cavity(),
        CoolingConfig(dynamic=True, segments_per_row=segments_per_row),
    )
    runtime = backend.respond_to_flow(fig8_flow_ml_min(segments), fig8_flux())
    reference = (
        FIG8_VEHICLE.solve(segments).row_means(FIG8_VEHICLE.rows).saturation_k
    )
    assert np.max(np.abs(runtime - reference)) < 0.05
    assert runtime[0] > runtime[-1]  # Fig. 8: saturation falls to outlet


def test_more_flow_lowers_outlet_quality():
    segments = FIG8_VEHICLE.rows * 20
    backend = TwoPhaseBackend(
        fig8_cavity(), CoolingConfig(dynamic=True, segments_per_row=20)
    )
    flow = fig8_flow_ml_min(segments)
    backend.respond_to_flow(flow, fig8_flux())
    base_quality = float(backend.hydraulic_state().quality[-1])
    backend.respond_to_flow(1.5 * flow, fig8_flux())
    boosted_quality = float(backend.hydraulic_state().quality[-1])
    assert boosted_quality < base_quality


def test_march_results_are_lru_cached():
    segments = FIG8_VEHICLE.rows * 4
    backend = TwoPhaseBackend(
        fig8_cavity(), CoolingConfig(dynamic=True, segments_per_row=4)
    )
    flow = fig8_flow_ml_min(segments)
    first = backend.respond_to_flow(flow, fig8_flux())
    again = backend.respond_to_flow(flow, fig8_flux())
    hits, misses, size, cap = backend.hydraulic_state().cache
    assert (hits, misses) == (1, 1)
    assert size == 1 and cap == 32
    np.testing.assert_array_equal(first, again)
    # A sub-quantum flow nudge maps to the same cache entry.
    backend.respond_to_flow(flow + 1e-5, fig8_flux())
    assert backend.hydraulic_state().cache[0] == 2


def test_dryout_surfaces_through_the_solver_taxonomy():
    backend = TwoPhaseBackend(
        fig8_cavity(), CoolingConfig(dynamic=True, segments_per_row=4)
    )
    hot = np.full(FIG8_VEHICLE.rows, 6e5)
    with pytest.raises(CoolingDryoutError) as excinfo:
        backend.respond_to_flow(4.0, hot)
    assert isinstance(excinfo.value, ThermalSolveError)
    assert excinfo.value.cavity == "fig8"
    assert backend.hydraulic_state().dryout_margin == 0.0


def test_dryout_fault_forces_inlet_quality():
    """An active DryoutFault erodes the margin; an expired one does not."""
    config = CoolingConfig(dynamic=True, segments_per_row=4)
    segments = FIG8_VEHICLE.rows * 4
    flow = fig8_flow_ml_min(segments)

    def margin(inlet_quality):
        backend = TwoPhaseBackend(fig8_cavity(), config)
        backend.respond_to_flow(flow, fig8_flux(), inlet_quality=inlet_quality)
        return backend.hydraulic_state().dryout_margin

    assert margin(0.6) < margin(None)


# ---------------------------------------------------------------------------
# model integration: anchors move the rhs, never the matrices
# ---------------------------------------------------------------------------


def _twophase_model(dynamic: bool) -> CompactThermalModel:
    scenario = twophase_scenario()
    from repro.scenario.runner import build_model, build_stack

    if not dynamic:
        scenario = Scenario.from_dict(
            {
                "stack": {"tiers": 2, "two_phase": True},
                "policy": {"name": "LC_FUZZY"},
                "solver": {"nx": 12, "ny": 10},
            }
        )
    return build_model(scenario, stack=build_stack(scenario.stack))


def test_static_two_phase_has_no_cooling_rhs():
    model = _twophase_model(dynamic=False)
    assert not model.update_cooling()
    assert model.cooling_rhs() is None
    assert model.dryout_margin() is None


def test_dynamic_anchor_moves_the_steady_state():
    model = _twophase_model(dynamic=True)
    assert model.cooled_cavity_names == ["cavity0"]
    powers = {}
    for layer, block in model.stack.iter_blocks():
        if block.kind == "core":
            powers[(layer.name, block.name)] = 4.0
    static = model.steady_state(powers)
    packed = np.array(
        [powers.get(ref, 0.0) for ref in model.block_order]
    )
    model.set_cavity_flow("cavity0", 15.0)
    assert model.update_cooling(packed)
    assert model.cooling_rhs() is not None
    marched = model.steady_state(powers)
    # The marched saturation sits below the static 30 degC anchor, so
    # the anchored fluid nodes cool down; everything stays finite.
    assert np.all(np.isfinite(marched.values))
    assert not np.allclose(static.values, marched.values)
    state = model.hydraulic_states()["cavity0"]
    assert state.dynamic and state.flow_ml_min == 15.0
    assert model.dryout_margin() is not None
    model.reset_run_state()
    assert model.cooling_rhs() is None


def test_unknown_cavity_keeps_legacy_error(liquid_model_coarse):
    with pytest.raises(KeyError):
        liquid_model_coarse.set_cavity_flow("nope", 10.0)
    with pytest.raises(KeyError):
        liquid_model_coarse.cooling_backend("nope")


# ---------------------------------------------------------------------------
# spec layer: validation and hash stability
# ---------------------------------------------------------------------------

GOLDEN_HASHES = {
    # Captured before the cooling-backend layer existed (PR 9 seed);
    # these specs must keep byte-identical hashes forever.
    "four_tier_fuzzy.json": (
        "ac93b1349f41eb1c81b2041fc7127993f29e1eea293d12e98c7c49e0eb7d8e2f",
        "3a6b0f5ad3f66f3ec5083ce9677ec2d728e6e60ae877782bd694e4d6a0006c5d",
    ),
    "two_tier_fuzzy.json": (
        "c9e0ae7a91da1ea669afc2bd5557f5d8d11cd6f8c17ec41c95e1d850c60c70b6",
        "54f2c5e6dea19b273ba785cefb70c56051fc8372cf2d65369a2e4fa45de908e8",
    ),
}

GOLDEN_DICTS = [
    (
        {},
        "4609ab3ef1b89b7476217c9067f45f078d03614a62b794724bcce162d09d0a1a",
        "54f2c5e6dea19b273ba785cefb70c56051fc8372cf2d65369a2e4fa45de908e8",
    ),
    (
        {"stack": {"tiers": 4}},
        "0bd8f5bfe20a5cdb4e8923e56feda836b250b2dfa86e8b823f023a944979720f",
        "3a6b0f5ad3f66f3ec5083ce9677ec2d728e6e60ae877782bd694e4d6a0006c5d",
    ),
    (
        {"policy": {"name": "AC_LB"}, "stack": {"cooling": "air"}},
        "9afe4e5081fc62e7e152566ed60304cbe75408dc4cd86881c931ddc9d4ba94fb",
        "78c4cbab4315e21f47c87bb0a29382f401f92c55637d27b9167cac5c92569a69",
    ),
    (
        {"stack": {"two_phase": True}},
        "5c78003748b9f3f7cd329d412792929e943f697fb94003be732e63a78a5ad335",
        "19626a2a7e1eb49bc0eb034f4fa5983be814ecb5351035a0c4b6dc6ae2f4308c",
    ),
]


def test_legacy_spec_files_keep_their_hashes():
    from pathlib import Path

    specs = Path(__file__).resolve().parent.parent / "examples" / "specs"
    for name, (content, model) in GOLDEN_HASHES.items():
        scenario = Scenario.load(specs / name)
        assert scenario.content_hash() == content, name
        assert scenario.model_hash() == model, name


def test_legacy_spec_dicts_keep_their_hashes():
    for data, content, model in GOLDEN_DICTS:
        scenario = Scenario.from_dict(data)
        assert scenario.content_hash() == content, data
        assert scenario.model_hash() == model, data


def test_absent_cooling_and_fault_fields_are_dropped_from_payload():
    plain = Scenario.from_dict(
        {"faults": {"flows": [{"kind": "pump-degradation"}]}}
    ).to_dict()
    assert "cooling_backend" not in plain["stack"]
    assert "inlet_quality" not in plain["faults"]["flows"][0]
    rich = twophase_scenario().to_dict()
    assert rich["stack"]["cooling_backend"]["backend"] == "two_phase"


def test_cooling_spec_round_trips_and_changes_the_hash():
    scenario = twophase_scenario()
    again = Scenario.from_json(scenario.to_json())
    assert again == scenario
    bare = Scenario.from_dict(
        {
            "stack": {"tiers": 2, "two_phase": True},
            "policy": {"name": "LC_FUZZY"},
            "solver": {"nx": 12, "ny": 10},
        }
    )
    assert scenario.content_hash() != bare.content_hash()
    assert scenario.model_hash() != bare.model_hash()


def test_cooling_spec_cross_validation():
    with pytest.raises(ScenarioError):
        Scenario.from_dict(
            {"stack": {"cooling_backend": {"backend": "two_phase"}}}
        )
    with pytest.raises(ScenarioError):
        CoolingSpec(backend="no-such-backend")
    with pytest.raises(ScenarioError):
        CoolingSpec(refrigerant="R00")
    with pytest.raises(ScenarioError):
        CoolingSpec(inlet_quality=1.0)
    with pytest.raises(ScenarioError):
        FlowFaultSpec(kind="pump-degradation", inlet_quality=0.5)
    with pytest.raises(ScenarioError):
        # Dryout faults need a two-phase stack.
        Scenario.from_dict(
            {"faults": {"flows": [{"kind": "dryout"}]}}
        )


# ---------------------------------------------------------------------------
# closed loop: flow commands move the saturation field
# ---------------------------------------------------------------------------


def test_closed_loop_flow_commands_move_the_saturation_field():
    simulator = Runner(twophase_scenario(duration=2)).build_simulator()
    result = simulator.run()
    state = simulator.model.hydraulic_states()["cavity0"]
    assert state.backend == "two_phase" and state.dynamic
    assert state.flow_ml_min is not None and state.flow_ml_min > 0.0
    # The marched profile moved off the static 303.15 K anchor...
    assert state.saturation_k is not None
    assert float(np.max(np.abs(state.saturation_k - 303.15))) > 1e-4
    # ...and falls from inlet to outlet (Fig. 8 shape), with the
    # margin accounted into the result.
    assert state.saturation_k[0] > state.saturation_k[-1]
    assert result.dryout_margin is not None
    assert 0.0 < result.dryout_margin < 1.0
    hits, misses, _size, _cap = state.cache
    assert hits + misses == 20  # one march per control step
    assert hits > 0  # the LRU cache absorbed repeated operating points


def test_dryout_fault_campaign_reports_margin_delta():
    base = twophase_scenario(duration=2)
    report = run_fault_campaign(
        base,
        scenarios=[
            FaultScenario(
                name="preheated-loop",
                faults=FaultSpec(
                    flows=(
                        FlowFaultSpec(kind="dryout", inlet_quality=0.3),
                    )
                ),
            ),
            FaultScenario(
                name="dried-out-loop",
                faults=FaultSpec(
                    flows=(
                        FlowFaultSpec(kind="dryout", inlet_quality=0.5),
                    )
                ),
            ),
        ],
        processes=1,
    )
    preheated, dried_out = report.outcomes
    # Pre-heating the inlet erodes the dry-out margin vs the baseline.
    assert preheated.completed
    assert preheated.dryout_margin_delta is not None
    assert preheated.dryout_margin_delta < 0.0
    assert "dMargin" in str(report.table())
    # Forcing past the dry-out limit surfaces through the solver-error
    # taxonomy as a structured failure, not a crashed campaign.
    assert not dried_out.completed
    assert dried_out.failure is not None
    assert dried_out.failure.error_type == "CoolingDryoutError"


def test_dryout_fault_spec_builds_the_fault():
    from repro.scenario.runner import build_faults

    faults = build_faults(
        FaultSpec(
            flows=(
                FlowFaultSpec(kind="dryout", inlet_quality=0.9, end=10.0),
            )
        )
    )
    fault = faults.flow_faults[0]
    assert isinstance(fault, DryoutFault)
    assert fault.inlet_quality == 0.9
    assert fault.active(5.0) and not fault.active(10.0)
    # Dryout faults leave the delivered flow untouched.
    assert fault.apply(5.0, {"cavity0": 20.0}) == {"cavity0": 20.0}
