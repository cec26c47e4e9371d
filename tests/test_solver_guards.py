"""Failure paths of the solver guards and the thermal error taxonomy.

Backward Euler on an RC network is unconditionally stable, so organic
divergence cannot be provoked; the retry/backoff machinery is exercised
by poisoning cached LU factors with stand-ins that return NaN, exactly
the corruption the guards exist to survive.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.policies import LiquidLoadBalancing
from repro.core.simulator import SystemSimulator
from repro.thermal import (
    CompactThermalModel,
    SolverGuard,
    ThermalInputError,
    ThermalSolveError,
    TransientDivergenceError,
    TransientStepper,
    ladder,
)


class _NaNFactor:
    """A poisoned LU factor: every solve comes back all-NaN."""

    def solve(self, rhs):
        return np.full_like(np.asarray(rhs, dtype=float), np.nan)


# ---------------------------------------------------------------------------
# input validation (satellite: reject bad powers / flows / dt)
# ---------------------------------------------------------------------------


def test_nan_power_raises_thermal_solve_error(
    liquid_model_coarse, uniform_core_powers
):
    powers = dict(uniform_core_powers)
    ref = next(iter(powers))
    powers[ref] = float("nan")
    with pytest.raises(ThermalSolveError):
        liquid_model_coarse.steady_state(powers)


def test_negative_power_rejected(liquid_model_coarse, uniform_core_powers):
    powers = dict(uniform_core_powers)
    ref = next(iter(powers))
    powers[ref] = -2.0
    with pytest.raises(ThermalInputError):
        liquid_model_coarse.steady_state(powers)


def test_input_error_is_also_value_error(
    liquid_model_coarse, uniform_core_powers
):
    """Pre-taxonomy callers catching ValueError keep working."""
    powers = dict(uniform_core_powers)
    powers[next(iter(powers))] = float("inf")
    with pytest.raises(ValueError):
        liquid_model_coarse.steady_state(powers)


@pytest.mark.parametrize("flow", [float("nan"), -1.0, 0.0])
def test_invalid_flow_rejected(liquid_model_coarse, flow):
    with pytest.raises(ThermalInputError):
        liquid_model_coarse.set_flow(flow)


@pytest.mark.parametrize("dt", [float("nan"), 0.0, -0.1])
def test_invalid_dt_rejected(liquid_model_coarse, dt):
    initial = liquid_model_coarse.uniform_field(300.0)
    with pytest.raises(ThermalInputError):
        TransientStepper(liquid_model_coarse, dt, initial)


def test_transient_nan_power_rejected(liquid_model_coarse):
    initial = liquid_model_coarse.uniform_field(300.0)
    stepper = TransientStepper(liquid_model_coarse, 0.1, initial)
    power = np.zeros(liquid_model_coarse.grid.size)
    power[0] = float("nan")
    with pytest.raises(ThermalInputError):
        stepper.step_with_power_vector(power)


def test_invalid_control_period_rejected(liquid_stack_2tier, short_trace):
    with pytest.raises(ThermalInputError):
        SystemSimulator(
            liquid_stack_2tier,
            LiquidLoadBalancing(),
            short_trace,
            control_period=float("nan"),
        )


def test_solver_guard_validation():
    with pytest.raises(ValueError):
        SolverGuard(max_dt_halvings=-1)
    with pytest.raises(ValueError):
        SolverGuard(residual_tolerance=0.0)


# ---------------------------------------------------------------------------
# steady-solve guards (satellite: poisoned-factor eviction)
# ---------------------------------------------------------------------------


def test_poisoned_steady_factor_evicted_and_retried(
    liquid_stack_2tier, uniform_core_powers
):
    model = CompactThermalModel(liquid_stack_2tier, nx=12, ny=10)
    reference = model.steady_state(uniform_core_powers)
    factors = model.caches["steady"]["direct"].entries
    key = (model.flow_signature(), None)
    factors[key] = factors[key]._replace(solver=_NaNFactor())

    field = model.steady_state(uniform_core_powers)

    assert np.all(np.isfinite(field.values))
    np.testing.assert_allclose(field.values, reference.values)
    diagnostics = model.last_steady_diagnostics
    assert diagnostics is not None
    assert diagnostics.kind == "steady"
    assert diagnostics.factor_evictions == 1


def test_unrecoverable_steady_failure_carries_diagnostics(
    liquid_stack_2tier, uniform_core_powers, monkeypatch
):
    model = CompactThermalModel(liquid_stack_2tier, nx=12, ny=10)
    # Every (re)factorisation hands back a poisoned factor, so even the
    # post-eviction retry fails and the taxonomy error must surface.
    real_operator = ladder.operator
    monkeypatch.setattr(
        ladder,
        "operator",
        lambda *args: real_operator(*args)._replace(solver=_NaNFactor()),
    )
    with pytest.raises(ThermalSolveError) as excinfo:
        model.steady_state(uniform_core_powers)
    diagnostics = excinfo.value.diagnostics
    assert diagnostics is not None
    assert not diagnostics.finite
    assert diagnostics.factor_evictions == 1


def test_steady_diagnostics_healthy_with_residual_check(
    liquid_stack_2tier, uniform_core_powers
):
    model = CompactThermalModel(
        liquid_stack_2tier,
        nx=12,
        ny=10,
        guard=SolverGuard(residual_tolerance=1e-8),
    )
    model.steady_state(uniform_core_powers)
    diagnostics = model.last_steady_diagnostics
    assert diagnostics is not None
    assert diagnostics.healthy()
    assert diagnostics.residual_norm is not None
    assert diagnostics.residual_norm < 1e-8
    assert diagnostics.condition_estimate is not None
    assert np.isfinite(diagnostics.condition_estimate)
    assert diagnostics.condition_estimate >= 1.0


# ---------------------------------------------------------------------------
# transient guards: eviction, dt backoff, divergence taxonomy
# ---------------------------------------------------------------------------


@pytest.fixture()
def fresh_stepper(liquid_stack_2tier, uniform_core_powers):
    model = CompactThermalModel(liquid_stack_2tier, nx=12, ny=10)
    initial = model.steady_state(uniform_core_powers)
    stepper = TransientStepper(model, 0.1, initial)
    return stepper, uniform_core_powers


def test_poisoned_transient_factor_refactorised(fresh_stepper):
    stepper, powers = fresh_stepper
    stepper.step(powers)  # primes the (signature, dt) cache entry
    key = (stepper.model.flow_signature(), stepper.dt)
    factors = stepper.model.caches["transient"]["direct"].entries
    factor, boundary, matrix = factors[key]
    factors[key] = (_NaNFactor(), boundary, matrix)

    state = stepper.step(powers)

    assert np.all(np.isfinite(state.values))
    diagnostics = stepper.last_diagnostics
    assert diagnostics is not None
    assert diagnostics.factor_evictions == 1
    assert diagnostics.retries == 0
    assert diagnostics.dt_effective == stepper.dt


def test_dt_backoff_converges_when_full_step_fails(fresh_stepper, monkeypatch):
    stepper, powers = fresh_stepper
    reference = stepper.state.values.copy()
    full_dt = stepper.dt
    real_operator = ladder.operator

    def poisoned_at_full_dt(model, kind, tier, key, flow=None):
        entry = real_operator(model, kind, tier, key, flow)
        if key[1] == full_dt:
            return (_NaNFactor(), entry[1], entry[2])
        return entry

    monkeypatch.setattr(ladder, "operator", poisoned_at_full_dt)
    state = stepper.step(powers)

    assert np.all(np.isfinite(state.values))
    assert stepper.time == pytest.approx(full_dt)
    diagnostics = stepper.last_diagnostics
    assert diagnostics is not None
    assert diagnostics.retries == 1
    assert diagnostics.dt_effective == pytest.approx(full_dt / 2.0)
    assert diagnostics.factor_evictions >= 1
    # Two dt/2 substeps land within the backward-Euler local error of
    # the full step: a small move away from the steady initial state.
    assert np.max(np.abs(state.values - reference)) < 5.0


def test_dt_backoff_exhaustion_raises_divergence_error(fresh_stepper, monkeypatch):
    stepper, powers = fresh_stepper
    stepper.model.guard = SolverGuard(max_dt_halvings=2)
    real_operator = ladder.operator

    def always_poisoned(model, kind, tier, key, flow=None):
        entry = real_operator(model, kind, tier, key, flow)
        return (_NaNFactor(), entry[1], entry[2])

    monkeypatch.setattr(ladder, "operator", always_poisoned)
    before = stepper.state.values.copy()
    with pytest.raises(TransientDivergenceError) as excinfo:
        stepper.step(powers)

    diagnostics = excinfo.value.diagnostics
    assert diagnostics is not None
    assert diagnostics.retries == 2
    assert not diagnostics.finite
    # The failed step must not corrupt the retained state or clock.
    np.testing.assert_array_equal(stepper.state.values, before)
    assert stepper.time == 0.0


def test_transient_residual_check_records_diagnostics(fresh_stepper):
    stepper, powers = fresh_stepper
    stepper.model.guard = SolverGuard(residual_tolerance=1e-6)
    stepper.step(powers)
    diagnostics = stepper.last_diagnostics
    assert diagnostics is not None
    assert diagnostics.healthy()
    assert diagnostics.residual_norm is not None
    assert diagnostics.residual_norm < 1e-6
    assert diagnostics.condition_estimate is not None
