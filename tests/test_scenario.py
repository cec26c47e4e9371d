"""Scenario spec tree: round-trips, content hashing, validation errors."""

import json
import multiprocessing
import subprocess
import sys
from dataclasses import replace

import pytest

from repro.scenario import (
    SCHEMA_VERSION,
    ChannelSpec,
    ControlSpec,
    FaultSpec,
    FlowFaultSpec,
    PolicySpec,
    Scenario,
    ScenarioError,
    SensorFaultSpec,
    SolverSpec,
    StackSpec,
    WorkloadSpec,
)


def _scenario(**overrides) -> Scenario:
    base = dict(
        stack=StackSpec(tiers=2, cooling="liquid"),
        workload=WorkloadSpec(name="database", duration=4),
        policy=PolicySpec(name="LC_FUZZY"),
        solver=SolverSpec(nx=12, ny=10),
        control=ControlSpec(),
        label="unit",
    )
    base.update(overrides)
    return Scenario(**base)


# -- round-trips ------------------------------------------------------------


def test_dict_round_trip():
    scenario = _scenario(
        faults=FaultSpec(
            sensors=(
                SensorFaultSpec(
                    kind="stuck",
                    layer="tier0_die",
                    block="core0",
                    start=1.0,
                    value_k=300.0,
                ),
            ),
            flows=(FlowFaultSpec(kind="pump-degradation", start=0.5),),
            actuator_lag_periods=3,
        )
    )
    assert Scenario.from_dict(scenario.to_dict()) == scenario


def test_json_round_trip_with_channel_and_pattern():
    scenario = _scenario(
        stack=StackSpec(
            tiers=4,
            cooling="liquid",
            tier_pattern="cmcm",
            channel=ChannelSpec(width=100e-6, height=100e-6, pitch=200e-6),
        ),
        workload=WorkloadSpec(
            source="generator", name="max-utilisation", threads=64, duration=4
        ),
    )
    assert Scenario.from_json(scenario.to_json()) == scenario


def test_save_load_round_trip(tmp_path):
    scenario = _scenario()
    path = scenario.save(tmp_path / "spec.json")
    assert Scenario.load(path) == scenario
    assert json.loads(path.read_text())["schema_version"] == SCHEMA_VERSION


def test_to_dict_is_json_ready():
    text = json.dumps(_scenario().to_dict())
    assert '"schema_version"' in text


# -- content hashing --------------------------------------------------------


def test_hash_deterministic_and_label_independent():
    a = _scenario(label="a")
    b = _scenario(label="something else")
    assert a.content_hash() == b.content_hash()
    assert len(a.content_hash()) == 64


def test_hash_changes_with_content():
    base = _scenario()
    assert (
        base.content_hash()
        != _scenario(solver=SolverSpec(nx=13, ny=10)).content_hash()
    )
    assert (
        base.content_hash()
        != _scenario(
            workload=WorkloadSpec(name="web", duration=4)
        ).content_hash()
    )


def test_hash_survives_json_round_trip():
    scenario = _scenario()
    assert (
        Scenario.from_json(scenario.to_json()).content_hash()
        == scenario.content_hash()
    )


def test_hash_stable_across_fresh_interpreter():
    """A spawn-style subprocess computes the identical hash."""
    scenario = _scenario()
    code = (
        "import sys\n"
        "from repro.scenario import Scenario\n"
        "print(Scenario.from_json(sys.stdin.read()).content_hash())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        input=scenario.to_json(),
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout.strip() == scenario.content_hash()


def test_hash_stable_across_fork():
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("fork start method unavailable")
    context = multiprocessing.get_context("fork")
    scenario = _scenario()
    with context.Pool(1) as pool:
        (child_hash,) = pool.map(_hash_of_canonical_scenario, [None])
    assert child_hash == scenario.content_hash()


def _hash_of_canonical_scenario(_):
    return _scenario().content_hash()


def test_model_hash_ignores_non_model_fields():
    base = _scenario()
    same_model = _scenario(
        workload=WorkloadSpec(name="web", duration=9),
        policy=PolicySpec(name="LC_LB"),
        record_series=True,
    )
    assert base.model_hash() == same_model.model_hash()
    assert base.model_hash() != _scenario(
        solver=SolverSpec(nx=13, ny=10)
    ).model_hash()
    assert base.content_hash() != same_model.content_hash()


# -- malformed specs --------------------------------------------------------


def test_unknown_field_suggests_nearest():
    data = _scenario().to_dict()
    data["polcy"] = data.pop("policy")
    with pytest.raises(ScenarioError, match=r"scenario\.polcy.*did you mean 'policy'"):
        Scenario.from_dict(data)


def test_nested_unknown_field_names_path():
    data = _scenario().to_dict()
    data["solver"]["bakend"] = "direct"
    with pytest.raises(ScenarioError, match=r"scenario\.solver\.bakend"):
        Scenario.from_dict(data)


def test_bad_choice_lists_options():
    data = _scenario().to_dict()
    data["policy"]["name"] = "LC_FUZY"
    with pytest.raises(
        ScenarioError, match=r"scenario\.policy\.name.*did you mean 'LC_FUZZY'"
    ):
        Scenario.from_dict(data)


def test_wrong_type_names_expectation():
    data = _scenario().to_dict()
    data["solver"]["nx"] = "coarse"
    with pytest.raises(ScenarioError, match=r"scenario\.solver\.nx: expected int"):
        Scenario.from_dict(data)


def test_non_mapping_rejected():
    with pytest.raises(ScenarioError, match="expected an object/mapping"):
        Scenario.from_dict([1, 2, 3])


def test_future_schema_version_rejected():
    data = _scenario().to_dict()
    data["schema_version"] = SCHEMA_VERSION + 1
    with pytest.raises(ScenarioError, match="schema_version"):
        Scenario.from_dict(data)


def test_invalid_json_rejected():
    with pytest.raises(ScenarioError, match="invalid JSON"):
        Scenario.from_json("{not json")


def test_scenario_error_is_value_error():
    assert issubclass(ScenarioError, ValueError)


def test_rom_backend_spec_fails_loudly(tmp_path):
    """Specs written for the removed reduced-order backend must not run
    on some other backend: parsing and ``repro run`` both name the
    field."""
    from repro.cli import main

    data = _scenario().to_dict()
    data["solver"]["backend"] = "rom"
    message = r"scenario\.solver\.backend: unknown value 'rom'; choose from"
    with pytest.raises(ScenarioError, match=message):
        Scenario.from_dict(data)
    spec = tmp_path / "rom.json"
    spec.write_text(json.dumps(data))
    with pytest.raises(SystemExit, match=message):
        main(["run", str(spec)])


def test_rom_options_block_fails_loudly():
    data = _scenario().to_dict()
    data["solver"]["rom"] = {"modes": 64}
    with pytest.raises(
        ScenarioError, match=r"scenario\.solver\.rom: unknown field"
    ):
        Scenario.from_dict(data)


# -- cross-field validation -------------------------------------------------


def test_policy_stack_cooling_mismatch():
    with pytest.raises(ScenarioError, match="cooling"):
        _scenario(policy=PolicySpec(name="AC_LB"))


def test_flow_faults_need_liquid_cooling():
    with pytest.raises(ScenarioError, match="liquid"):
        _scenario(
            stack=StackSpec(tiers=2, cooling="air"),
            policy=PolicySpec(name="AC_LB"),
            faults=FaultSpec(
                flows=(FlowFaultSpec(kind="pump-degradation"),)
            ),
        )


def test_too_few_threads_rejected():
    with pytest.raises(ScenarioError, match="threads"):
        _scenario(workload=WorkloadSpec(name="database", threads=4, duration=4))


def test_clogged_cavity_needs_name():
    with pytest.raises(ScenarioError, match="cavity"):
        FlowFaultSpec(kind="clogged-cavity")


def test_duplicate_sensor_fault_rejected():
    sensor = SensorFaultSpec(kind="dead", layer="tier0_die", block="core0")
    with pytest.raises(ScenarioError, match="duplicate"):
        FaultSpec(sensors=(sensor, sensor))


# -- helpers ----------------------------------------------------------------


def test_with_faults_and_with_label():
    base = _scenario()
    overlay = FaultSpec(flows=(FlowFaultSpec(kind="pump-degradation"),))
    faulted = base.with_faults(overlay)
    assert faulted.faults == overlay and base.faults is None
    relabelled = base.with_label("renamed")
    assert relabelled.label == "renamed"
    assert relabelled.content_hash() == base.content_hash()


def test_scenarios_are_frozen():
    scenario = _scenario()
    with pytest.raises(Exception):
        scenario.record_series = True
    # dataclasses.replace is the supported way to derive variants
    assert replace(scenario, record_series=True).record_series is True
