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


def _full_spec() -> dict:
    """A plain spec with every kind of node: leaves, nested specs and
    tuples of specs."""
    data = _scenario(
        faults=FaultSpec(
            sensors=(SensorFaultSpec(layer="tier0_die", block="core0"),),
            flows=(
                FlowFaultSpec(),
                FlowFaultSpec(
                    kind="clogged-cavity",
                    cavity="cavity0",
                    remaining_fraction=0.5,
                ),
            ),
            actuator_lag_periods=2,
        )
    ).to_dict()
    data["stack"]["channel"] = {"width": 5e-05}
    data["stack"]["cooling_backend"] = {"backend": "single_phase_liquid"}
    return data


_DELETE = object()

_MALFORMED = [
    # (dotted path, value set there or _DELETE, the whole message)
    # a wrong type for each leaf type
    ("stack.tiers", "2", "scenario.stack.tiers: expected int, got str ('2')"),
    ("stack.tiers", 2.0, "scenario.stack.tiers: expected int, got float (2.0)"),
    ("stack.tiers", True, "scenario.stack.tiers: expected int, got bool"),
    ("stack.cooling", 1, "scenario.stack.cooling: expected str, got int (1)"),
    (
        "stack.two_phase",
        "yes",
        "scenario.stack.two_phase: expected bool, got str ('yes')",
    ),
    ("stack.two_phase", 1, "scenario.stack.two_phase: expected bool, got int (1)"),
    (
        "stack.die_thickness",
        "thin",
        "scenario.stack.die_thickness: expected float, got str ('thin')",
    ),
    (
        "stack.die_thickness",
        False,
        "scenario.stack.die_thickness: expected float, got bool",
    ),
    ("stack.tier_pattern", 5, "scenario.stack.tier_pattern: expected str, got int (5)"),
    (
        "workload.threads",
        1.5,
        "scenario.workload.threads: expected int, got float (1.5)",
    ),
    ("workload.seed", "0", "scenario.workload.seed: expected int, got str ('0')"),
    (
        "policy.flow_ml_min",
        "fast",
        "scenario.policy.flow_ml_min: expected float, got str ('fast')",
    ),
    (
        "policy.flow_control",
        0,
        "scenario.policy.flow_control: expected bool, got int (0)",
    ),
    ("solver.nx", [23], "scenario.solver.nx: expected int, got list ([23])"),
    ("solver.rtol", {}, "scenario.solver.rtol: expected float, got dict ({})"),
    (
        "control.period",
        "0.1",
        "scenario.control.period: expected float, got str ('0.1')",
    ),
    ("record_series", "no", "scenario.record_series: expected bool, got str ('no')"),
    ("label", 7, "scenario.label: expected str, got int (7)"),
    (
        "faults.actuator_lag_periods",
        2.5,
        "scenario.faults.actuator_lag_periods: expected int, got float (2.5)",
    ),
    (
        "stack.channel.width",
        "wide",
        "scenario.stack.channel.width: expected float, got str ('wide')",
    ),
    (
        "stack.cooling_backend.dynamic",
        "true",
        "scenario.stack.cooling_backend.dynamic: expected bool, got str ('true')",
    ),
    (
        "stack.cooling_backend.segments_per_row",
        4.0,
        "scenario.stack.cooling_backend.segments_per_row: expected int, got float (4.0)",
    ),
    (
        "faults.sensors.0.seed",
        "7",
        "scenario.faults.sensors[0].seed: expected int, got str ('7')",
    ),
    # out-of-range values
    ("stack.tiers", 3, "scenario.stack.tiers: must be an even number >= 2, got 3"),
    (
        "policy.name",
        "LC_FUZY",
        "scenario.policy.name: unknown value 'LC_FUZY'; choose from ['AC_LB', 'AC_TDVFS_LB', 'LC_FUZZY', 'LC_LB'] (did you mean 'LC_FUZZY'?)",
    ),
    ("solver.nx", 1, "scenario.solver.nx/ny: grid resolution must be >= 2, got 1 x 10"),
    ("control.period", 0, "scenario.control.period: must be positive, got 0.0"),
    ("workload.duration", 0, "scenario.workload.duration: must be >= 1 second, got 0"),
    (
        "stack.channel.width",
        0.0002,
        "scenario.stack.channel.width: channel width 0.0002 must be smaller than the pitch 0.00015",
    ),
    (
        "stack.cooling_backend.backend",
        "air_sink",
        "scenario.stack.cooling_backend.backend: air_sink requires cooling='air'",
    ),
    (
        "stack.cooling_backend.saturation_c",
        200,
        "scenario.stack.cooling_backend.saturation_c: implausible saturation temperature 200.0 degC",
    ),
    # unknown fields, with and without a suggestion
    (
        "polcy",
        {},
        "scenario.polcy: unknown field; choose from ['control', 'faults', 'label', 'policy', 'record_series', 'schema_version', 'solver', 'stack', 'workload'] (did you mean 'policy'?)",
    ),
    (
        "extra",
        1,
        "scenario.extra: unknown field; choose from ['control', 'faults', 'label', 'policy', 'record_series', 'schema_version', 'solver', 'stack', 'workload']",
    ),
    (
        "solver.bakend",
        "direct",
        "scenario.solver.bakend: unknown field; choose from ['atol', 'backend', 'drop_tol', 'fill_factor', 'maxiter', 'nx', 'ny', 'rtol'] (did you mean 'backend'?)",
    ),
    (
        "stack.channel.pich",
        0.0001,
        "scenario.stack.channel.pich: unknown field; choose from ['height', 'pitch', 'width'] (did you mean 'pitch'?)",
    ),
    (
        "faults.sensors.0.blok",
        "core1",
        "scenario.faults.sensors[0].blok: unknown field; choose from ['block', 'end', 'kind', 'layer', 'seed', 'sigma_k', 'start', 'value_k'] (did you mean 'block'?)",
    ),
    # a missing required sensor field
    (
        "faults.sensors.0.layer",
        _DELETE,
        "scenario.faults.sensors[0].layer: field is required",
    ),
    (
        "faults.sensors.0.layer",
        None,
        "scenario.faults.sensors[0].layer: field is required",
    ),
    (
        "faults.sensors.0.block",
        _DELETE,
        "scenario.faults.sensors[0].block: field is required",
    ),
    # a tuple of specs that is not a list
    ("faults.sensors", "core0", "scenario.faults.sensors: expected a list"),
    ("faults.sensors", {"kind": "dead"}, "scenario.faults.sensors: expected a list"),
    ("faults.flows", 3, "scenario.faults.flows: expected a list"),
    # errors inside faults.flows[1]
    (
        "faults.flows.1.kind",
        "clog",
        "scenario.faults.flows[1].kind: unknown value 'clog'; choose from ['clogged-cavity', 'dryout', 'pump-degradation']",
    ),
    (
        "faults.flows.1.remaining_fraction",
        1.5,
        "scenario.faults.flows[1].remaining_fraction: must be in (0, 1], got 1.5",
    ),
    (
        "faults.flows.1.cavity",
        _DELETE,
        "scenario.faults.flows[1].cavity: clogged-cavity faults need the cavity name (e.g. 'cavity0')",
    ),
    (
        "faults.flows.1",
        "clogged",
        "scenario.faults.flows[1]: expected an object/mapping, got str",
    ),
    # a bad schema_version
    ("schema_version", 2, "scenario.schema_version: this build reads version 1, got 2"),
    (
        "schema_version",
        "1",
        "scenario.schema_version: this build reads version 1, got '1'",
    ),
    # a node of the wrong type
    ("stack", None, "scenario.stack: expected an object/mapping, got NoneType"),
    ("solver", [1], "scenario.solver: expected an object/mapping, got list"),
    ("faults", "none", "scenario.faults: expected an object/mapping, got str"),
    ("stack.channel", 5, "scenario.stack.channel: expected an object/mapping, got int"),
    # cross-field checks
    (
        "policy.name",
        "AC_LB",
        "scenario.policy.name: AC_LB requires air cooling but stack.cooling is 'liquid'",
    ),
    (
        "workload.threads",
        4,
        "scenario.workload.threads: 4 threads cannot occupy the stack's 8 cores; leave threads unset to derive 4 SMT threads per core",
    ),
    (
        "faults.sensors.0.value_k",
        300,
        "scenario.faults.sensors[0].value_k: only 'stuck' sensor faults take a held value",
    ),
]


def test_full_spec_parses():
    Scenario.from_dict(_full_spec())


@pytest.mark.parametrize(
    "path, value, message",
    _MALFORMED,
    ids=[
        f"{path}={'deleted' if value is _DELETE else value!r}"
        for path, value, _ in _MALFORMED
    ],
)
def test_malformed_spec_message(path, value, message):
    """Every parse error names its field path, byte for byte."""
    data = _full_spec()
    *parents, last = [int(k) if k.isdigit() else k for k in path.split(".")]
    node = data
    for key in parents:
        node = node[key]
    if value is _DELETE:
        del node[last]
    else:
        node[last] = value
    with pytest.raises(ScenarioError) as raised:
        Scenario.from_dict(data)
    assert str(raised.value) == message


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
