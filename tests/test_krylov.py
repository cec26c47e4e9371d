"""The iterative (ILU + BiCGSTAB) solver path against the direct LU."""

import numpy as np
import pytest

from repro.geometry import build_3d_mpsoc
from repro.thermal import CompactThermalModel, TransientStepper
from repro.thermal.krylov import (
    DIRECT_NODE_LIMIT,
    KrylovOptions,
    choose_backend,
)


def _powers(model, seed=7):
    rng = np.random.default_rng(seed)
    return {
        ref: float(p)
        for ref, p in zip(
            model.block_order,
            rng.uniform(0.5, 4.0, len(model.block_order)),
        )
    }


def test_choose_backend_auto_threshold():
    assert choose_backend("auto", DIRECT_NODE_LIMIT) == "direct"
    # Auto jumps straight to the raw-speed tier above the direct limit;
    # plain ILU is never an auto tier.
    assert choose_backend("auto", DIRECT_NODE_LIMIT + 1) == "amg"
    # Explicit requests are never overridden by the size heuristic.
    assert choose_backend("direct", 10**9) == "direct"
    assert choose_backend("iterative", 10) == "iterative"


def test_choose_backend_rejects_unknown():
    with pytest.raises(ValueError):
        choose_backend("quantum", 100)
    with pytest.raises(ValueError):
        CompactThermalModel(build_3d_mpsoc(2), nx=6, ny=5, solver="quantum")


@pytest.mark.parametrize("tiers", [2, 4])
def test_steady_iterative_matches_direct(tiers):
    stack = build_3d_mpsoc(tiers)
    direct = CompactThermalModel(stack, nx=12, ny=10, solver="direct")
    iterative = CompactThermalModel(stack, nx=12, ny=10, solver="iterative")
    powers = _powers(direct)
    for flow in (None, 30.0):
        reference = direct.steady_state(powers, flow)
        solved = iterative.steady_state(powers, flow)
        assert np.allclose(
            solved.values, reference.values, rtol=1e-8, atol=0.0
        )
    assert iterative.steady_stats.iterative_solves == 2
    assert iterative.steady_stats.fallbacks_to_direct == 0
    assert iterative.steady_stats.krylov_iterations > 0


def test_steady_warm_start_cuts_iterations():
    model = CompactThermalModel(
        build_3d_mpsoc(2), nx=12, ny=10, solver="iterative"
    )
    powers = _powers(model)
    model.steady_state(powers)
    cold = model.steady_stats.krylov_iterations
    # A nearby problem at the same flow warm-starts from the previous
    # solution and must converge in fewer sweeps than the cold solve.
    model.steady_state({ref: p * 1.01 for ref, p in powers.items()})
    warm = model.steady_stats.krylov_iterations - cold
    assert 0 <= warm < cold


@pytest.mark.parametrize("tiers", [2, 4])
def test_transient_iterative_matches_direct(tiers):
    stack = build_3d_mpsoc(tiers)
    model = CompactThermalModel(stack, nx=12, ny=10, solver="direct")
    powers = _powers(model)
    initial = model.steady_state(powers)
    packed = model.pack_powers(
        {ref: p * 1.3 for ref, p in powers.items()}
    )
    direct = TransientStepper(model, 0.1, initial)
    iterative = TransientStepper(
        CompactThermalModel(stack, nx=12, ny=10, solver="iterative"),
        0.1,
        initial,
    )
    for _ in range(5):
        direct.step_packed(packed)
        iterative.step_packed(packed)
    assert np.allclose(
        iterative.state.values, direct.state.values, rtol=1e-8, atol=0.0
    )
    assert iterative.time == direct.time
    assert iterative.stats.iterative_solves == 5
    assert iterative.stats.fallbacks_to_direct == 0


def test_steady_nonconvergence_falls_back_to_direct():
    stack = build_3d_mpsoc(2)
    reference = CompactThermalModel(stack, nx=12, ny=10, solver="direct")
    starved = CompactThermalModel(
        stack,
        nx=12,
        ny=10,
        solver="iterative",
        krylov=KrylovOptions(maxiter=1, rtol=1e-14),
    )
    powers = _powers(reference)
    solved = starved.steady_state(powers)
    # One BiCGSTAB sweep cannot reach rtol=1e-14 from a cold start, so
    # the solve must have been handed to the guarded LU — and the LU
    # fallback factorises the same matrix with the same options, so the
    # result is bitwise the direct answer.
    assert starved.steady_stats.fallbacks_to_direct == 1
    assert starved.steady_stats.iterative_solves == 0
    assert np.array_equal(
        solved.values, reference.steady_state(powers).values
    )


def test_transient_nonconvergence_falls_back_to_direct():
    stack = build_3d_mpsoc(2)
    model = CompactThermalModel(stack, nx=12, ny=10)
    powers = _powers(model)
    initial = model.steady_state(powers)
    packed = model.pack_powers({ref: p * 2.0 for ref, p in powers.items()})
    reference = TransientStepper(model, 0.1, initial)
    starved = TransientStepper(
        CompactThermalModel(
            stack,
            nx=12,
            ny=10,
            solver="iterative",
            krylov=KrylovOptions(maxiter=1, rtol=1e-16, atol=0.0),
        ),
        0.1,
        initial,
    )
    reference.step_packed(packed)
    starved.step_packed(packed)
    assert starved.stats.fallbacks_to_direct >= 1
    assert np.array_equal(starved.state.values, reference.state.values)


def test_failed_transient_rung_reports_its_own_iterations():
    model = CompactThermalModel(
        build_3d_mpsoc(2), nx=12, ny=10, solver="iterative"
    )
    powers = _powers(model)
    initial = model.steady_state(powers)
    packed = model.pack_powers({ref: p * 2.0 for ref, p in powers.items()})
    stepper = TransientStepper(model, 0.1, initial)
    stepper.step_packed(packed)
    first = stepper.last_diagnostics.iterations
    assert first > 1
    assert stepper.stats.krylov_iterations == first
    # Starve the cached operator: one sweep cannot reach rtol=1e-14, so
    # the step falls back to LU after exactly one iteration of its own.
    ((solver, _, _),) = model.caches["transient"]["iterative"].entries.values()
    solver.options = KrylovOptions(maxiter=1, rtol=1e-14)
    stepper.step_packed(packed)
    diagnostics = stepper.last_diagnostics
    assert diagnostics.fallback_to_direct
    assert diagnostics.method == "direct"
    assert diagnostics.iterations == 1
    assert stepper.stats.krylov_iterations == first + 1
