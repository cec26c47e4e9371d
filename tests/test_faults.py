"""Fault models, graceful controller degradation and fault campaigns."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import constants
from repro.core.controller import FuzzyThermalController
from repro.core.policies import LiquidFuzzy, LiquidLoadBalancing
from repro.core.simulator import SystemSimulator
from repro.faults import (
    ActuatorLagFault,
    CloggedCavityFault,
    DeadSensorFault,
    FaultScenario,
    FaultSet,
    NoisySensorFault,
    PumpDegradationFault,
    StuckSensorFault,
    run_fault_campaign,
)
from repro.scenario import (
    FaultSpec,
    FlowFaultSpec,
    PolicySpec,
    Scenario,
    SensorFaultSpec,
    SolverSpec,
    WorkloadSpec,
)
from repro.thermal import TemperatureSensors
from tests.conftest import make_constant_trace


def _core_refs(stack):
    return [
        (layer.name, block.name)
        for layer, block in stack.iter_blocks()
        if block.kind == "core"
    ]


# ---------------------------------------------------------------------------
# fault models
# ---------------------------------------------------------------------------


def test_dead_sensor_active_window_only():
    fault = DeadSensorFault(start=1.0, end=2.0)
    assert fault(0.5, 310.0) == 310.0
    assert math.isnan(fault(1.0, 310.0))
    assert math.isnan(fault(1.9, 310.0))
    assert fault(2.0, 310.0) == 310.0


def test_stuck_sensor_holds_first_windowed_reading():
    fault = StuckSensorFault(start=1.0, end=3.0)
    assert fault(0.0, 300.0) == 300.0
    assert fault(1.0, 310.0) == 310.0  # sticks here
    assert fault(2.0, 325.0) == 310.0
    assert fault(3.0, 330.0) == 330.0  # window over, live again


def test_stuck_sensor_constant_value():
    fault = StuckSensorFault(value_k=350.0)
    assert fault(0.0, 300.0) == 350.0
    assert fault(5.0, 400.0) == 350.0


def test_noisy_sensor_is_seeded_and_windowed():
    a = NoisySensorFault(sigma_k=2.0, seed=7)
    b = NoisySensorFault(sigma_k=2.0, seed=7)
    seq_a = [a(0.0, 300.0) for _ in range(4)]
    seq_b = [b(0.0, 300.0) for _ in range(4)]
    assert seq_a == seq_b
    assert any(abs(x - 300.0) > 1e-9 for x in seq_a)
    off = NoisySensorFault(sigma_k=2.0, start=10.0)
    assert off(0.0, 300.0) == 300.0


def test_pump_degradation_scales_every_cavity():
    fault = PumpDegradationFault(remaining_fraction=0.7, start=1.0)
    flows = {"cav0": 30.0, "cav1": 20.0}
    assert fault.apply(0.0, flows) == flows
    degraded = fault.apply(1.5, flows)
    assert degraded["cav0"] == pytest.approx(21.0)
    assert degraded["cav1"] == pytest.approx(14.0)
    with pytest.raises(ValueError):
        PumpDegradationFault(remaining_fraction=0.0)


def test_clogged_cavity_is_local():
    fault = CloggedCavityFault(cavity="cav1", remaining_fraction=0.5)
    flows = {"cav0": 30.0, "cav1": 30.0}
    clogged = fault.apply(0.0, flows)
    assert clogged["cav0"] == 30.0
    assert clogged["cav1"] == pytest.approx(15.0)
    with pytest.raises(ValueError):
        CloggedCavityFault(cavity="")


def test_actuator_lag_delays_settings():
    lag = ActuatorLagFault(periods=2)
    commands = [{"c": step} for step in range(5)]
    effective = [lag.apply(command)["c"] for command in commands]
    # The oldest command is held until the queue fills, then settings
    # arrive exactly two control periods late.
    assert effective == [0, 0, 0, 1, 2]
    with pytest.raises(ValueError):
        ActuatorLagFault(periods=0)


def test_fault_set_describe_and_effective_flows():
    faults = FaultSet(
        sensor_faults={("tier0_die", "core0"): DeadSensorFault()},
        flow_faults=[PumpDegradationFault(remaining_fraction=0.8)],
        actuator_lag=ActuatorLagFault(periods=1),
    )
    summary = faults.describe()
    assert "DeadSensorFault" in summary
    assert "PumpDegradationFault" in summary
    assert "ActuatorLag(1)" in summary
    assert FaultSet().describe() == "no faults"
    flows = faults.effective_flows(0.0, 30.0, ["cav0", "cav1"])
    assert flows == {
        "cav0": pytest.approx(24.0),
        "cav1": pytest.approx(24.0),
    }


# ---------------------------------------------------------------------------
# sensor-layer integration
# ---------------------------------------------------------------------------


def test_installed_fault_masks_reading_but_not_ground_truth(
    liquid_model_coarse, uniform_core_powers
):
    sensors = TemperatureSensors(liquid_model_coarse)
    dead_ref = sensors.refs[0]
    sensors.install_fault(dead_ref, DeadSensorFault())
    field = liquid_model_coarse.steady_state(uniform_core_powers)

    readings = sensors.read(field, time=0.0)
    assert math.isnan(readings[dead_ref])
    truth = sensors.true_values(field)
    assert all(math.isfinite(value) for value in truth.values())

    hottest_ref, hottest = sensors.read_max(field, time=0.0)
    assert hottest_ref != dead_ref
    assert math.isfinite(hottest)

    with pytest.raises(KeyError):
        sensors.install_fault(("nowhere", "nothing"), DeadSensorFault())
    sensors.clear_faults()
    assert sensors.faulted_refs == []


# ---------------------------------------------------------------------------
# graceful controller degradation
# ---------------------------------------------------------------------------


def test_controller_partial_sensor_loss_fails_safe():
    controller = FuzzyThermalController()
    temps = {"c0": float("nan"), "c1": 330.0}
    utils = {"c0": 0.5, "c1": 0.5}
    flow, vf = controller.decide(0.0, temps, utils)
    assert flow == pytest.approx(float(controller.flow_grid[-1]))
    assert vf["c0"] == controller.vf_table.lowest_index
    assert controller.last_lost_sensors == ["c0"]


def test_controller_total_sensor_loss_fails_safe():
    controller = FuzzyThermalController()
    temps = {"c0": float("nan"), "c1": float("inf")}
    utils = {"c0": 0.9, "c1": 0.9}
    flow, vf = controller.decide(0.0, temps, utils)
    assert flow == pytest.approx(float(controller.flow_grid[-1]))
    assert set(vf) == {"c0", "c1"}
    assert all(
        index == controller.vf_table.lowest_index for index in vf.values()
    )


def test_controller_boosts_flow_after_shortfall():
    controller = FuzzyThermalController()
    temps = {"c0": 310.0, "c1": 311.0}  # ~37 degC: fuzzy commands low flow
    utils = {"c0": 0.3, "c1": 0.3}
    baseline, _ = controller.decide(0.0, temps, utils)
    assert baseline < float(controller.flow_grid[-1])

    # The loop delivered half the command: the next command is boosted.
    controller.observe_achieved_flow(baseline, 0.5 * baseline)
    boosted, _ = controller.decide(0.1, temps, utils)
    assert boosted > baseline

    # Delivery recovered: the boost is dropped again.
    controller.observe_achieved_flow(boosted, boosted)
    recovered, _ = controller.decide(0.2, temps, utils)
    assert recovered == pytest.approx(baseline)


# ---------------------------------------------------------------------------
# closed-loop simulation under faults
# ---------------------------------------------------------------------------


def test_simulator_runs_with_combined_faults(liquid_stack_2tier, short_trace):
    core = _core_refs(liquid_stack_2tier)[0]
    faults = FaultSet(
        sensor_faults={core: DeadSensorFault()},
        flow_faults=[PumpDegradationFault(remaining_fraction=0.7)],
        actuator_lag=ActuatorLagFault(periods=1),
    )
    simulator = SystemSimulator(
        liquid_stack_2tier,
        LiquidFuzzy(),
        short_trace,
        nx=12,
        ny=10,
        faults=faults,
        record_series=True,
    )
    result = simulator.run()
    assert math.isfinite(result.peak_temperature_c)
    assert result.mean_flow_ml_min > 0.0
    assert result.total_energy_j > 0.0
    assert np.all(np.isfinite(result.series["max_temperature_c"]))


def test_all_sensors_dead_forces_max_flow(liquid_stack_2tier, short_trace):
    cores = _core_refs(liquid_stack_2tier)
    faults = FaultSet(
        sensor_faults={core: DeadSensorFault() for core in cores}
    )
    simulator = SystemSimulator(
        liquid_stack_2tier,
        LiquidFuzzy(),
        short_trace,
        nx=12,
        ny=10,
        faults=faults,
    )
    result = simulator.run()
    assert result.mean_flow_ml_min == pytest.approx(
        constants.FLOW_RATE_MAX_ML_MIN
    )


def test_sensor_loss_keeps_peak_below_uncontrolled_baseline(
    liquid_stack_2tier,
):
    """Acceptance: the degraded fuzzy controller still beats no control.

    "No control" is the pump stuck at its minimum flow with no DVFS;
    the fuzzy policy runs blind (every sensor dead) under the same 30 %
    pump degradation and must stay cooler thanks to its max-flow
    fail-safe.
    """
    trace = make_constant_trace(0.9, intervals=3)
    cores = _core_refs(liquid_stack_2tier)
    pump_wear = PumpDegradationFault(remaining_fraction=0.7)

    blind = SystemSimulator(
        liquid_stack_2tier,
        LiquidFuzzy(),
        trace,
        nx=12,
        ny=10,
        faults=FaultSet(
            sensor_faults={core: DeadSensorFault() for core in cores},
            flow_faults=[pump_wear],
        ),
    ).run()
    uncontrolled = SystemSimulator(
        liquid_stack_2tier,
        LiquidLoadBalancing(flow_ml_min=constants.FLOW_RATE_MIN_ML_MIN),
        trace,
        nx=12,
        ny=10,
        faults=FaultSet(flow_faults=[pump_wear]),
    ).run()

    assert blind.peak_temperature_c < uncontrolled.peak_temperature_c


# ---------------------------------------------------------------------------
# fault campaigns
# ---------------------------------------------------------------------------


def _campaign_base() -> Scenario:
    """A short 2-tier LC_FUZZY run on the coarse grid."""
    return Scenario(
        workload=WorkloadSpec(name="max-utilisation", duration=3),
        policy=PolicySpec(name="LC_FUZZY"),
        solver=SolverSpec(nx=12, ny=10),
    )


def _dead_sensor(ref) -> SensorFaultSpec:
    return SensorFaultSpec(kind="dead", layer=ref[0], block=ref[1])


@pytest.mark.parametrize("processes", [None, 2])
def test_campaign_dead_sensor_and_pump_degradation(
    liquid_stack_2tier, processes
):
    """Acceptance: the headline campaign completes end-to-end.

    With ``processes=2`` the baseline and the faulted run go to worker
    processes, each building its fault set from the spec.
    """
    core = _core_refs(liquid_stack_2tier)[0]
    scenarios = [
        FaultScenario(
            "dead-sensor+pump-30%",
            FaultSpec(
                sensors=(_dead_sensor(core),),
                flows=(FlowFaultSpec(remaining_fraction=0.7),),
            ),
        ),
    ]
    report = run_fault_campaign(
        _campaign_base(), scenarios, processes=processes
    )
    assert report.complete
    outcome = report.outcomes[0]
    assert outcome.completed
    assert math.isfinite(outcome.peak_delta_c)
    assert math.isfinite(outcome.energy_delta_j)
    assert outcome.time_over_threshold_s >= 0.0
    rendered = str(report.table())
    assert "dead-sensor+pump-30%" in rendered


def test_campaign_survives_a_failing_scenario(liquid_stack_2tier):
    core = _core_refs(liquid_stack_2tier)[0]
    scenarios = [
        FaultScenario(
            "healthy-scenario", FaultSpec(sensors=(_dead_sensor(core),))
        ),
        # A dead sensor on a block the stack lacks fails at run time.
        FaultScenario(
            "broken-scenario",
            FaultSpec(sensors=(_dead_sensor((core[0], "core99")),)),
        ),
    ]
    report = run_fault_campaign(_campaign_base(), scenarios, retries=0)
    assert not report.complete
    by_name = {outcome.name: outcome for outcome in report.outcomes}
    assert by_name["healthy-scenario"].completed
    failure = by_name["broken-scenario"].failure
    assert failure is not None
    assert failure.phase == "exception"
    assert failure.error_type == "KeyError"
    assert "FAILED" in str(report.table())


def test_campaign_scenario_name_validation():
    with pytest.raises(ValueError):
        FaultScenario("__baseline__", FaultSpec())
    duplicated = [
        FaultScenario("twin", FaultSpec()),
        FaultScenario("twin", FaultSpec()),
    ]
    with pytest.raises(ValueError):
        run_fault_campaign(_campaign_base(), duplicated)
