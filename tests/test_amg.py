"""AMG hierarchy construction, determinism, equivalence and telemetry."""

import numpy as np
import pytest
from scipy import sparse

from repro.geometry import Cavity, CoolingMode, build_3d_mpsoc
from repro.obs.metrics import get_registry
from repro.thermal import CompactThermalModel
from repro.thermal.amg import (
    AmgOptions,
    AmgPreconditioner,
    algebraic_aggregates,
    coolant_rows,
    geometric_aggregates,
)
from repro.thermal.diagnostics import FactorizationError
from repro.thermal.krylov import AmgSolver


def _poisson_1d(n: int) -> sparse.csr_matrix:
    main = np.full(n, 2.0)
    off = np.full(n - 1, -1.0)
    return sparse.diags([off, main, off], (-1, 0, 1)).tocsr()


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def test_geometric_aggregates_partition_and_compose():
    agg, coarse = geometric_aggregates((4, 8, 8), (2, 4, 4))
    assert coarse == (2, 2, 2)
    assert agg.size == 4 * 8 * 8
    # A partition: every aggregate id in range, every id used.
    assert agg.min() == 0 and agg.max() == 7
    assert np.unique(agg).size == 8
    # Each (2, 4, 4) block holds exactly 32 fine cells.
    assert np.bincount(agg).tolist() == [32] * 8
    # Ragged extents round up instead of dropping cells.
    agg2, coarse2 = geometric_aggregates((3, 5, 5), (2, 4, 4))
    assert coarse2 == (2, 2, 2)
    assert agg2.size == 3 * 5 * 5
    assert np.unique(agg2).size == 8


def test_geometric_aggregates_follow_grid_layout():
    agg, _ = geometric_aggregates((2, 4, 4), (2, 4, 4))
    # One aggregate covering the whole grid.
    assert np.array_equal(agg, np.zeros(32, dtype=agg.dtype))
    agg, coarse = geometric_aggregates((2, 4, 4), (1, 4, 4))
    # z splits only: flat layout is z*ny*nx + y*nx + x.
    assert coarse == (2, 1, 1)
    assert np.array_equal(agg[:16], np.zeros(16, dtype=agg.dtype))
    assert np.array_equal(agg[16:], np.ones(16, dtype=agg.dtype))


def test_algebraic_aggregates_partition_and_determinism():
    A = _poisson_1d(200)
    agg, n_agg = algebraic_aggregates(A, theta=0.1, seed=0)
    assert agg.size == 200
    assert agg.min() >= 0 and agg.max() == n_agg - 1
    assert np.unique(agg).size == n_agg
    assert 1 < n_agg < 200  # actually coarsens, not trivially
    agg2, n_agg2 = algebraic_aggregates(A, theta=0.1, seed=0)
    assert n_agg2 == n_agg
    assert np.array_equal(agg, agg2)


def test_algebraic_aggregates_isolated_nodes_become_singletons():
    A = sparse.identity(5, format="csr")
    agg, n_agg = algebraic_aggregates(A)
    assert n_agg == 5
    assert np.unique(agg).size == 5


# ---------------------------------------------------------------------------
# options validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"block": (0, 4, 4)},
        {"block": (1, 1, 1)},
        {"presmooth": -1},
        {"presmooth": 0, "postsmooth": 0},
        {"coarse_limit": 0},
        {"max_levels": 0},
        {"strength_theta": 1.0},
        {"rho_iterations": 0},
    ],
)
def test_amg_options_validation(kwargs):
    with pytest.raises(ValueError):
        AmgOptions(**kwargs)


# ---------------------------------------------------------------------------
# hierarchy construction
# ---------------------------------------------------------------------------


def test_scipy_hierarchy_coarsens_to_the_limit():
    stack = build_3d_mpsoc(2, CoolingMode.LIQUID)
    model = CompactThermalModel(stack, nx=24, ny=20)
    options = AmgOptions(coarse_limit=200)
    pre = AmgPreconditioner(
        model.system_matrix(),
        options,
        grid_shape=(model.grid.levels, model.grid.ny, model.grid.nx),
        n_extra=1 if model.grid.has_sink_node else 0,
    )
    sizes = list(pre.level_sizes)
    assert sizes[0] == model.grid.size
    assert all(a > b for a, b in zip(sizes, sizes[1:]))
    assert sizes[-1] <= options.coarse_limit
    # Galerkin coarse operators stay a small multiple of nnz(A).
    assert 1.0 <= pre.operator_complexity < 2.0


def test_hierarchy_is_deterministic():
    stack = build_3d_mpsoc(2, CoolingMode.LIQUID)
    model = CompactThermalModel(stack, nx=16, ny=12)
    A = model.system_matrix()
    kwargs = dict(
        grid_shape=(model.grid.levels, model.grid.ny, model.grid.nx),
        n_extra=1 if model.grid.has_sink_node else 0,
    )
    one = AmgPreconditioner(A, AmgOptions(coarse_limit=100), **kwargs)
    two = AmgPreconditioner(A, AmgOptions(coarse_limit=100), **kwargs)
    assert one.line_unknowns > 0  # the coolant line smoother is exercised
    b = np.linspace(0.0, 1.0, A.shape[0])
    assert np.array_equal(one.cycle(b), two.cycle(b))


def test_grid_shape_mismatch_is_a_factorization_error():
    A = _poisson_1d(64)
    with pytest.raises(FactorizationError):
        AmgPreconditioner(A, AmgOptions(coarse_limit=8), grid_shape=(2, 4, 4))


def test_algebraic_path_without_grid_shape():
    A = _poisson_1d(4096)
    pre = AmgPreconditioner(A, AmgOptions(coarse_limit=64))
    assert pre.level_sizes[-1] <= 64
    solver = AmgSolver(A, amg=AmgOptions(coarse_limit=64))
    rhs = np.ones(4096)
    solution, iterations = solver.solve(rhs)
    from scipy.sparse.linalg import spsolve

    assert np.allclose(solution, spsolve(A.tocsc(), rhs), atol=1e-6)
    assert iterations < 100


# ---------------------------------------------------------------------------
# coolant line smoother
# ---------------------------------------------------------------------------


def _grid_kwargs(model):
    return dict(
        grid_shape=(model.grid.levels, model.grid.ny, model.grid.nx),
        n_extra=1 if model.grid.has_sink_node else 0,
    )


def test_coolant_rows_are_the_single_phase_cavity_rows():
    model = CompactThermalModel(
        build_3d_mpsoc(4, CoolingMode.LIQUID), nx=9, ny=7
    )
    shape = _grid_kwargs(model)["grid_shape"]
    cavity_levels = [
        level
        for level, element in enumerate(model.stack.elements)
        if isinstance(element, Cavity)
    ]
    assert len(cavity_levels) == 3
    expected = np.concatenate(
        [level * model.grid.ny + np.arange(model.grid.ny) for level in cavity_levels]
    )
    assert np.array_equal(coolant_rows(model.system_matrix(), shape), expected)
    # Conduction alone is symmetric: no lines without advection.
    for stack in (
        build_3d_mpsoc(2, CoolingMode.AIR),
        build_3d_mpsoc(2, two_phase=True),
    ):
        other = CompactThermalModel(stack, nx=9, ny=7)
        rows = coolant_rows(
            other.system_matrix(), _grid_kwargs(other)["grid_shape"]
        )
        assert rows.size == 0


def test_line_smoother_cuts_cold_iterations():
    """A cold 4-tier liquid solve at 60x60 cells per level took 23
    BiCGSTAB iterations with point-Jacobi smoothing alone."""
    stack = build_3d_mpsoc(4, CoolingMode.LIQUID)
    registry = get_registry()
    results = {}
    for solver in ("amg", "direct"):
        model = CompactThermalModel(stack, nx=60, ny=60, solver=solver)
        model.set_flow(32.3)
        powers = {ref: 2.0 for ref in model.block_order}
        results[solver] = model.steady_state(powers).values
        if solver == "amg":
            iterations = model.last_steady_diagnostics.iterations
            assert model.last_steady_diagnostics.method == "bicgstab+amg"
            assert registry.gauge("solver.amg.line_unknowns").value == (
                3 * 60 * 60
            )
    assert iterations <= 16
    assert np.max(np.abs(results["amg"] - results["direct"])) < 1e-6


def test_air_cooled_stack_keeps_the_point_smoother():
    model = CompactThermalModel(
        build_3d_mpsoc(2, CoolingMode.AIR), nx=40, ny=40, solver="amg"
    )
    model.steady_state({ref: 2.0 for ref in model.block_order})
    assert get_registry().gauge("solver.amg.line_unknowns").value == 0
    assert model.last_steady_diagnostics.iterations == 8


def test_singular_coolant_line_is_a_factorization_error():
    # Grid (1, 2, 8): two x-rows of 8 cells.  Upwind-skewed couplings
    # (-1.5 upstream, -1.0 downstream) mark both rows as coolant lines.
    n = 16
    upstream = np.full(n - 1, -1.5)
    downstream = np.full(n - 1, -1.0)
    upstream[7] = downstream[7] = 0.0  # no coupling across the row end
    diagonal = np.full(n, 3.0)
    diagonal[0] = upstream[0] = 0.0  # an empty first column: zero pivot
    A = sparse.diags(
        [upstream, diagonal, downstream], (-1, 0, 1), format="csr"
    )
    registry = get_registry()
    start = registry.snapshot()
    with pytest.raises(FactorizationError, match="line"):
        AmgPreconditioner(A, AmgOptions(coarse_limit=4), grid_shape=(1, 2, 8))
    delta = registry.delta_since(start)
    assert delta["solver.amg.setup_failures"]["value"] == 1


# ---------------------------------------------------------------------------
# model integration
# ---------------------------------------------------------------------------


def test_amg_steady_matches_direct(uniform_core_powers, liquid_stack_2tier):
    amg = CompactThermalModel(
        liquid_stack_2tier, nx=12, ny=10, solver="amg"
    )
    direct = CompactThermalModel(
        liquid_stack_2tier, nx=12, ny=10, solver="direct"
    )
    field = amg.steady_state(uniform_core_powers)
    expected = direct.steady_state(uniform_core_powers)
    assert np.allclose(field.values, expected.values, atol=1e-6)
    diagnostics = amg.last_steady_diagnostics
    assert diagnostics.method == "bicgstab+amg"
    assert diagnostics.iterations is not None
    assert not diagnostics.fallback_to_iterative
    assert amg.steady_stats.amg_solves == 1
    assert amg.steady_stats.direct_solves == 0


def test_amg_solver_cache_and_eviction(liquid_stack_2tier):
    model = CompactThermalModel(
        liquid_stack_2tier, nx=12, ny=10, solver="amg"
    )
    powers = {ref: 2.0 for ref in model.block_order}
    model.steady_state(powers)
    before = model.steady_cache_info()
    model.steady_state(powers)
    after = model.steady_cache_info()
    assert after.hits == before.hits + 1
    # Warm start: the repeated identical solve converges immediately.
    assert model.last_steady_diagnostics.iterations == 0
    assert model.evict_steady_factor()  # drops the cached hierarchy
    assert not model.evict_steady_factor()


def test_amg_eviction_drops_the_warm_start(liquid_stack_2tier):
    model = CompactThermalModel(liquid_stack_2tier, nx=12, ny=10, solver="amg")
    powers = {ref: 2.0 for ref in model.block_order}
    for flow in range(10, 22):  # 12 distinct flow states
        model.steady_state(powers, float(flow))
    hierarchies = model._steady_ops["amg"].entries
    assert len(hierarchies) == 8
    # One warm-start vector per cached hierarchy, none for evicted ones.
    assert model.run_state.warm.keys() == hierarchies.keys()


def test_amg_setup_telemetry(liquid_stack_2tier):
    registry = get_registry()
    start = registry.snapshot()
    model = CompactThermalModel(
        liquid_stack_2tier, nx=12, ny=10, solver="amg"
    )
    powers = {ref: 2.0 for ref in model.block_order}
    model.steady_state(powers)
    delta = registry.delta_since(start)
    assert delta["solver.amg.setups"]["value"] == 1
    assert delta["solver.amg.solves"]["value"] == 1
    # On a grid this small the coarse LU *is* the preconditioner, so
    # BiCGSTAB may converge before its first callback; zero-valued
    # deltas are omitted from the snapshot.
    assert delta.get("solver.amg.iterations", {}).get("value", 0) >= 0
    assert delta["solver.backend_selected.amg"]["value"] >= 1


def test_scenario_spec_accepts_amg_backend():
    from repro.scenario import (
        PolicySpec,
        Scenario,
        SolverSpec,
        StackSpec,
        WorkloadSpec,
    )
    from repro.scenario.runner import build_model

    scenario = Scenario(
        stack=StackSpec(tiers=2, cooling="liquid"),
        workload=WorkloadSpec(name="database", duration=4),
        policy=PolicySpec(name="LC_FUZZY"),
        solver=SolverSpec(backend="amg", nx=12, ny=10),
        label="amg-roundtrip",
    )
    assert scenario.solver.backend == "amg"
    clone = Scenario.from_dict(scenario.to_dict())
    assert clone.solver.backend == "amg"
    model = build_model(scenario)
    assert model.steady_backend() == "amg"
