"""The reference checker and the determinism self-check."""

import numpy as np
import pytest
from pbench import checks, service
from pbench.common import Outcome, same_counts
from repro.geometry.stack import CoolingMode, build_3d_mpsoc
from repro.power.model import PowerModel
from repro.thermal.field import TemperatureField
from repro.thermal.model import CompactThermalModel


@pytest.fixture(scope="module")
def reference():
    return checks.load_reference()


def test_exact_reference_passes_and_perturbed_result_fails(reference):
    expected = reference["closed_loop"]["2t_twophase"]
    assert checks.mismatches(dict(expected), expected) == []
    nudged = dict(expected, chip_energy_j=expected["chip_energy_j"] * (1 + 1e-9))
    assert checks.mismatches(nudged, expected) == []
    perturbed = dict(expected, peak_temperature_c=expected["peak_temperature_c"] + 0.01)
    problems = checks.mismatches(perturbed, expected)
    assert len(problems) == 1 and "peak_temperature_c" in problems[0]


def test_missing_nan_and_none_fields_fail(reference):
    expected = reference["closed_loop"]["2t_twophase"]
    assert checks.mismatches({}, expected)
    assert checks.mismatches(dict(expected, pump_energy_j=float("nan")), expected)
    assert checks.mismatches(dict(expected, dryout_margin=None), expected)
    air = reference["closed_loop"]["2t_tdvfs"]
    assert air["dryout_margin"] is None
    assert checks.mismatches(dict(air, dryout_margin=0.5), air)


@pytest.fixture(scope="module")
def small_solve():
    stack = build_3d_mpsoc(2, CoolingMode.LIQUID)
    model = CompactThermalModel(stack, nx=12, ny=10)
    model.set_flow(20.0)
    powers = PowerModel(stack).block_powers(
        {ref: 0.8 for ref in PowerModel(stack).core_refs}
    )
    return model, model.steady_state(powers), powers


def test_balanced_field_passes(small_solve):
    model, field, powers = small_solve
    residual = checks.energy_residual(model, field, powers)
    assert residual < 1e-9
    assert checks.grid_field_problems(field, field.max(), residual) == []


def test_unbalanced_field_fails(small_solve):
    model, field, powers = small_solve
    heated = TemperatureField(model.grid, field.values + 0.5)
    residual = checks.energy_residual(model, heated, powers)
    assert residual > checks.ENERGY_TOL
    problems = checks.grid_field_problems(heated, heated.max(), residual)
    assert any("energy residual" in p for p in problems)


def test_wrong_peak_and_non_finite_field_fail(small_solve):
    model, field, powers = small_solve
    residual = checks.energy_residual(model, field, powers)
    assert checks.grid_field_problems(field, field.max() + 0.01, residual)
    broken = field.values.copy()
    broken[3] = np.nan
    assert checks.grid_field_problems(
        TemperatureField(model.grid, broken), field.max(), residual
    ) == ["non-finite temperatures"]


def test_service_job_problems(reference):
    seed, expected = next(iter(reference["service"].items()))
    good = {
        "seed": int(seed), "state": "DONE", "disposition": "new",
        "attempts": 1, "result": dict(expected),
    }
    assert service.job_problems(good, expected) == []
    assert service.job_problems(dict(good, state="FAILED"), expected)
    assert service.job_problems(dict(good, disposition="cached"), expected)
    assert service.job_problems(dict(good, attempts=2), expected)
    assert service.job_problems({"seed": 1, "error": "boom"}, expected) == ["boom"]
    wrong = dict(expected, mean_flow_ml_min=expected["mean_flow_ml_min"] + 1.0)
    assert service.job_problems(dict(good, result=wrong), expected)


def test_outcome_and_count_self_check():
    outcome = Outcome()
    assert outcome.record("a", [])
    assert not outcome.record("b", ["wrong"])
    assert (outcome.attempted, outcome.failed, outcome.correct) == (2, 1, False)
    steady = Outcome()
    same_counts(steady, "kind", [{"steps": 600}, {"steps": 600}])
    assert steady.correct
    same_counts(steady, "kind", [{"steps": 600}, {"steps": 599}])
    assert not steady.correct and steady.failed == 0
