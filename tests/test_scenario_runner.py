"""Runner/cache/fan-out integration: scenario runs match legacy paths."""

import pytest

from repro.analysis import run_simulations, run_simulations_resilient
from repro.core import SystemSimulator, paper_policies
from repro.faults import FaultScenario, run_fault_campaign
from repro.geometry import build_3d_mpsoc
from repro.scenario import (
    ControlSpec,
    FaultSpec,
    PolicySpec,
    ResultCache,
    Scenario,
    SensorFaultSpec,
    SolverSpec,
    StackSpec,
    WorkloadSpec,
    run_scenario,
)
from repro.scenario.runner import KeptModel, build_trace
from repro.scenario.spec import SUITE_WORKLOADS
from repro.workload import paper_workload_suite

NX, NY = 12, 10
DURATION = 2


def _scenario(policy="LC_FUZZY", workload="database", **overrides):
    spec = PolicySpec(name=policy)
    base = dict(
        stack=StackSpec(tiers=2, cooling=spec.cooling),
        workload=WorkloadSpec(name=workload, duration=DURATION),
        policy=spec,
        solver=SolverSpec(nx=NX, ny=NY),
        control=ControlSpec(),
        label=f"{policy}/{workload}",
    )
    base.update(overrides)
    return Scenario(**base)


def _fields(result):
    return (
        result.policy,
        result.workload,
        result.duration,
        result.peak_temperature_c,
        result.chip_energy_j,
        result.pump_energy_j,
        result.hotspot_percent_avg,
        result.hotspot_percent_any,
        result.degradation_percent,
        result.mean_flow_ml_min,
    )


# -- bitwise equality vs the legacy path ------------------------------------


@pytest.mark.parametrize(
    "policy_name", ["AC_LB", "AC_TDVFS_LB", "LC_LB", "LC_FUZZY"]
)
def test_runner_bitwise_equals_legacy(policy_name):
    """The Fig. 6 policy suite: Runner == hand-wired SystemSimulator."""
    scenario = _scenario(policy=policy_name, workload="max-utilisation")
    via_runner = run_scenario(scenario)

    policy = next(p for p in paper_policies() if p.name == policy_name)
    stack = build_3d_mpsoc(2, policy.cooling)
    trace = paper_workload_suite(threads=32, duration=DURATION)[
        "max-utilisation"
    ]
    legacy = SystemSimulator(stack, policy, trace, nx=NX, ny=NY).run()

    assert _fields(via_runner) == _fields(legacy)


@pytest.mark.parametrize("seed", [None, 7])
def test_suite_traces_equal_the_suites_traces_bitwise(seed):
    """``build_trace`` builds one generator; the suite builds all four."""
    suite = paper_workload_suite(threads=64, duration=30, seed=seed or 0)
    for name, expected in suite.items():
        spec = WorkloadSpec(name=name, source="suite", duration=30, seed=seed)
        trace = build_trace(spec, StackSpec(tiers=4))
        assert (trace.name, trace.period) == (expected.name, expected.period)
        assert trace.utilisation.tobytes() == expected.utilisation.tobytes()
    assert set(suite) == set(SUITE_WORKLOADS)


# -- result cache -----------------------------------------------------------


def test_cache_round_trip_and_zero_extra_solves(tmp_path, monkeypatch):
    scenario = _scenario()
    cache = ResultCache(tmp_path)

    calls = {"n": 0}
    original = SystemSimulator.run

    def counting_run(self):
        calls["n"] += 1
        return original(self)

    monkeypatch.setattr(SystemSimulator, "run", counting_run)
    first = run_scenario(scenario, cache=cache)
    second = run_scenario(scenario, cache=cache)
    assert calls["n"] == 1, "the repeated point must be served from cache"
    assert cache.hits == 1 and _fields(first) == _fields(second)


def test_cache_miss_on_different_scenario(tmp_path):
    cache = ResultCache(tmp_path)
    run_scenario(_scenario(), cache=cache)
    run_scenario(_scenario(workload="web"), cache=cache)
    assert cache.hits == 0 and cache.misses == 2


def test_corrupt_cache_entry_degrades_to_recompute(tmp_path):
    scenario = _scenario()
    cache = ResultCache(tmp_path)
    result = run_scenario(scenario, cache=cache)
    cache.path(scenario).write_bytes(b"not a pickle")
    again = run_scenario(scenario, cache=cache)
    assert _fields(again) == _fields(result)
    assert cache.corrupt == 1


def test_truncated_cache_entry_is_a_counted_miss(tmp_path):
    scenario = _scenario()
    cache = ResultCache(tmp_path)
    result = run_scenario(scenario, cache=cache)
    path = cache.path(scenario)
    # A torn write from a pre-atomic-rename era (or bit rot): a valid
    # pickle prefix that ends mid-stream.
    path.write_bytes(path.read_bytes()[:100])
    again = run_scenario(scenario, cache=cache)
    assert _fields(again) == _fields(result)
    assert cache.corrupt == 1

    # A well-formed pickle of the wrong type is equally untrusted.
    import pickle

    path.write_bytes(pickle.dumps(["not", "a", "result"]))
    third = run_scenario(scenario, cache=cache)
    assert _fields(third) == _fields(result)
    assert cache.corrupt == 2


def test_run_simulations_cache_dir_skips_solves(tmp_path, monkeypatch):
    jobs = [_scenario(), _scenario(workload="web")]

    calls = {"n": 0}
    original = SystemSimulator.run

    def counting_run(self):
        calls["n"] += 1
        return original(self)

    monkeypatch.setattr(SystemSimulator, "run", counting_run)
    first = run_simulations(jobs, cache_dir=tmp_path)
    second = run_simulations(jobs, cache_dir=tmp_path)
    assert calls["n"] == len(jobs)
    assert [(k, _fields(r)) for k, r in first] == [
        (k, _fields(r)) for k, r in second
    ]


# -- fan-out over scenarios -------------------------------------------------


def test_run_simulations_accepts_bare_scenarios():
    scenarios = [_scenario(policy="LC_LB"), _scenario(policy="LC_FUZZY")]
    results = run_simulations(scenarios)
    assert [key for key, _ in results] == [s.label for s in scenarios]
    for scenario, (_, result) in zip(scenarios, results):
        assert _fields(result) == _fields(run_scenario(scenario))


def test_shared_serial_matches_plain_for_scenarios():
    scenarios = [_scenario(workload="web"), _scenario(workload="database")]
    plain = [(s.label, run_scenario(s)) for s in scenarios]
    shared = run_simulations(scenarios)
    assert [(k, _fields(r)) for k, r in plain] == [
        (k, _fields(r)) for k, r in shared
    ]


def test_shared_payload_dedupes_scenarios_and_models():
    a = _scenario(workload="web")
    b = _scenario(workload="database")
    jobs = [a, a, b]
    # same stack + solver spec -> one kept thermal model for all jobs
    assert {job.model_hash() for job in jobs} == {a.model_hash()}
    kept = KeptModel()
    shared = [kept.for_run(job) for job in jobs]
    assert shared[0] is not None
    assert all(model is shared[0] for model in shared)


def test_shared_model_reused_across_scenario_jobs():
    jobs = [_scenario(workload="web"), _scenario(workload="database")]
    kept = KeptModel()
    first = kept.for_run(jobs[0])
    second = kept.for_run(jobs[1])
    assert first is not None and second is first


def test_shared_serial_matches_fresh_on_iterative_backend():
    """Krylov warm starts do not carry from one job to the next."""
    solver = SolverSpec(nx=NX, ny=NY, backend="iterative")
    scenarios = [
        _scenario(workload=workload, solver=solver)
        for workload in ("web", "database", "web")
    ]
    fresh = [(s.label, run_scenario(s)) for s in scenarios]
    shared = run_simulations(scenarios)
    assert [(k, _fields(r)) for k, r in fresh] == [
        (k, _fields(r)) for k, r in shared
    ]


def test_resilient_accepts_scenarios():
    outcome = run_simulations_resilient([_scenario(policy="LC_LB")])
    assert outcome.complete and len(outcome.results) == 1


# -- fault campaigns over a scenario base -----------------------------------


def _dead_sensor():
    return FaultSpec(
        sensors=(
            SensorFaultSpec(
                kind="dead", layer="tier0_die", block="core0", start=0.0
            ),
        )
    )


def test_campaign_with_scenario_base(tmp_path):
    base = _scenario()
    report = run_fault_campaign(
        base,
        scenarios=[FaultScenario("dead-sensor", _dead_sensor())],
        cache_dir=tmp_path,
    )
    assert report.complete
    assert report.policy == "LC_FUZZY" and report.workload == "database"
    outcome = report.outcomes[0]
    assert outcome.completed and outcome.peak_delta_c is not None


def test_campaign_baseline_served_from_cache(tmp_path, monkeypatch):
    base = _scenario()
    scenarios = [FaultScenario("dead-sensor", _dead_sensor())]

    calls = {"n": 0}
    original = SystemSimulator.run

    def counting_run(self):
        calls["n"] += 1
        return original(self)

    monkeypatch.setattr(SystemSimulator, "run", counting_run)
    run_fault_campaign(base, scenarios=scenarios, cache_dir=tmp_path)
    solves_first = calls["n"]
    run_fault_campaign(base, scenarios=scenarios, cache_dir=tmp_path)
    assert calls["n"] == solves_first, (
        "a repeated campaign must be served entirely from the cache"
    )
