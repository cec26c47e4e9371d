"""Backend tiering pinned at the limits, and the fallback chain."""

import numpy as np
import pytest

from repro.geometry import CoolingMode, build_3d_mpsoc
from repro.obs.metrics import get_registry
from repro.thermal import CompactThermalModel
from repro.thermal.diagnostics import (
    FactorizationError,
    IterativeConvergenceError,
)
from repro.thermal.krylov import (
    DIRECT_NODE_LIMIT,
    SOLVER_CHOICES,
    AmgSolver,
    KrylovOptions,
    choose_backend,
)


@pytest.mark.parametrize(
    "n_nodes,expected",
    [
        (1, "direct"),
        (DIRECT_NODE_LIMIT - 1, "direct"),
        (DIRECT_NODE_LIMIT, "direct"),
        # The ILU tier has no auto window of its own: above the limit
        # auto goes straight to the raw-speed tier.
        (DIRECT_NODE_LIMIT + 1, "amg"),
        (10 * DIRECT_NODE_LIMIT, "amg"),
    ],
)
def test_auto_tier_pinned_at_the_node_limit(n_nodes, expected):
    assert choose_backend("auto", n_nodes) == expected


@pytest.mark.parametrize("backend", ["direct", "iterative", "amg"])
@pytest.mark.parametrize("n_nodes", [1, DIRECT_NODE_LIMIT, 10**9])
def test_explicit_requests_pass_through(backend, n_nodes):
    assert backend in SOLVER_CHOICES
    assert choose_backend(backend, n_nodes) == backend


def test_unknown_backend_rejected():
    with pytest.raises(ValueError, match="unknown solver"):
        choose_backend("quantum", 100)


# ---------------------------------------------------------------------------
# forced-failure amg -> iterative -> direct chain
# ---------------------------------------------------------------------------


def _force_amg_failure(monkeypatch, mode):
    """Break the AMG tier: hierarchy setup or BiCGSTAB convergence."""
    if mode == "setup":
        def broken_init(self, *args, **kwargs):
            raise FactorizationError("forced AMG setup failure")

        monkeypatch.setattr(AmgSolver, "__init__", broken_init)
    else:
        def broken_solve(self, rhs, x0=None):
            raise IterativeConvergenceError("forced AMG non-convergence")

        monkeypatch.setattr(AmgSolver, "solve", broken_solve)


@pytest.mark.parametrize("failure", ["setup", "convergence"])
def test_amg_chain_falls_back_to_iterative(monkeypatch, failure):
    """amg -> iterative: a broken AMG tier must answer through the ILU
    path with observables bitwise identical to a plain iterative model,
    and the hop must land in the fallback counters."""
    stack = build_3d_mpsoc(2, CoolingMode.LIQUID)
    model = CompactThermalModel(stack, nx=12, ny=10, solver="amg")
    reference = CompactThermalModel(stack, nx=12, ny=10, solver="iterative")
    powers = {ref: 2.0 for ref in model.block_order}
    registry = get_registry()
    start = registry.snapshot()
    _force_amg_failure(monkeypatch, failure)
    field = model.steady_state(powers)
    diagnostics = model.last_steady_diagnostics
    assert diagnostics.method == "bicgstab"
    assert diagnostics.fallback_to_iterative
    assert not diagnostics.fallback_to_direct
    assert not diagnostics.healthy()
    assert model.steady_stats.fallbacks_to_iterative == 1
    assert model.steady_stats.iterative_solves == 1
    assert model.steady_stats.amg_solves == 0
    delta = registry.delta_since(start)
    assert delta["solver.fallback.amg_to_iterative"]["value"] == 1
    assert "solver.fallback.iterative_to_direct" not in delta
    expected = reference.steady_state(powers)
    assert np.array_equal(field.values, expected.values)


@pytest.mark.parametrize("failure", ["setup", "convergence"])
def test_amg_chain_falls_back_to_iterative_then_direct(monkeypatch, failure):
    """amg -> iterative -> direct: with both Krylov tiers broken the
    guarded direct LU must produce the exact direct-model observables
    while both fallback hops are counted."""
    import repro.thermal.model as model_module

    stack = build_3d_mpsoc(2, CoolingMode.LIQUID)
    model = CompactThermalModel(stack, nx=12, ny=10, solver="amg")
    reference = CompactThermalModel(stack, nx=12, ny=10, solver="direct")
    powers = {ref: 2.0 for ref in model.block_order}
    registry = get_registry()
    start = registry.snapshot()
    _force_amg_failure(monkeypatch, failure)

    class BrokenKrylov:
        def __init__(self, *args, **kwargs):
            raise FactorizationError("forced ILU setup failure")

    monkeypatch.setattr(model_module, "KrylovSolver", BrokenKrylov)
    field = model.steady_state(powers)
    diagnostics = model.last_steady_diagnostics
    assert diagnostics.method == "direct"
    assert diagnostics.fallback_to_iterative
    assert diagnostics.fallback_to_direct
    assert model.steady_stats.fallbacks_to_iterative == 1
    assert model.steady_stats.fallbacks_to_direct == 1
    assert model.steady_stats.direct_solves == 1
    delta = registry.delta_since(start)
    assert delta["solver.fallback.amg_to_iterative"]["value"] == 1
    assert delta["solver.fallback.iterative_to_direct"]["value"] == 1
    expected = reference.steady_state(powers)
    assert np.array_equal(field.values, expected.values)


# ---------------------------------------------------------------------------
# iteration accounting across the rungs of one solve
# ---------------------------------------------------------------------------


def _starve(model, tier):
    """Give the cached operator of one rung a one-iteration budget."""
    model.steady_operator(tier).options = KrylovOptions(maxiter=1)


def test_failed_rung_reports_its_own_iterations():
    """A rung that fails after earlier solves at the same flow reports
    the iterations of its failed solve, not the cumulative total of
    its cached operator."""
    stack = build_3d_mpsoc(2, CoolingMode.LIQUID)
    model = CompactThermalModel(stack, nx=12, ny=10, solver="iterative")
    for scale in (1.0, 2.0, 3.0):
        model.steady_state({ref: scale for ref in model.block_order})
    before = model.steady_stats.krylov_iterations
    assert before > 1
    _starve(model, "iterative")
    model.steady_state({ref: 4.0 for ref in model.block_order})
    diagnostics = model.last_steady_diagnostics
    assert diagnostics.method == "direct"
    assert diagnostics.fallback_to_direct
    assert diagnostics.iterations == 1
    assert model.steady_stats.krylov_iterations == before + 1


def test_accepted_solve_sums_the_iterations_of_every_rung_tried():
    """amg fails after one iteration, ILU converges: the accepted solve
    counts both rungs.  (On coarser grids the AMG hierarchy solves
    almost exactly and converges within its first iteration.)"""
    stack = build_3d_mpsoc(2, CoolingMode.LIQUID)
    model = CompactThermalModel(stack, nx=30, ny=30, solver="amg")
    reference = CompactThermalModel(stack, nx=30, ny=30, solver="iterative")
    powers = {ref: 2.0 for ref in model.block_order}
    _starve(model, "amg")
    field = model.steady_state(powers)
    expected = reference.steady_state(powers)
    diagnostics = model.last_steady_diagnostics
    assert diagnostics.method == "bicgstab"
    assert diagnostics.fallback_to_iterative
    ilu_iterations = reference.last_steady_diagnostics.iterations
    assert diagnostics.iterations == 1 + ilu_iterations
    assert model.steady_stats.krylov_iterations == 1 + ilu_iterations
    assert np.array_equal(field.values, expected.values)
