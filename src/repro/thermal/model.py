"""Assembly of the compact RC thermal model (3D-ICE-equivalent).

The stack is discretised into one ``nx x ny`` cell level per stack
element.  Solid cells exchange heat with their six neighbours through
series conductances; cavity levels are homogenised porous fluid levels
(liquid fraction = channel porosity) that

* couple convectively to the dies above and below through the
  fin-enhanced footprint coefficient of the channel geometry,
* carry a direct wall-conduction bypass between those dies, and
* transport enthalpy downstream with an upwind advective term
  ``mdot cp (T_upwind - T_cell)`` per cell row — the 3D-ICE "4-resistor
  + advection" liquid cell in homogenised form.

The system is written as ``C dT/dt = -A(f) T + P + b(f)`` where only the
advective part of ``A`` and ``b`` depends on the flow rate ``f``, and it
does so *linearly*:

``A(f) = A_base + c(f) A_adv``,  ``b(f) = b_base + c(f) T_in b_adv``

with ``c(f) = rho cp f / ny`` the per-row capacity rate.  Heat transfer
coefficients are flow-independent in the fully developed laminar regime,
so changing the flow rate at run time never requires reassembly — the
transient stepper merely swaps (cached) LU factors.

Assembly is fully vectorised: each physical phase (lateral edges of a
level, one vertical coupling, one wall bypass, saturation anchors,
advection stencils, sink edges) emits one batch of edges built from
:meth:`ThermalGrid.level_indices` index arithmetic into a
:class:`repro.thermal.assembly.ConductanceBuilder`, whose build order
is deterministic (dense per-phase diagonal accumulation,
duplicate-free off-diagonals).  The loop-built reference
implementation lives in ``tests/reference_assembly.py`` and the
equivalence tests assert both paths agree bit for bit.  Phase order
(which fixes the floating-point summation order on the matrix diagonal):

1. per-level capacitance fill,
2. per level, bottom to top: all x-edges, then all y-edges,
3. vertical couplings per adjacent level pair, bottom to top,
4. wall-conduction bypasses per cavity, bottom to top,
5. two-phase saturation anchors per cavity, bottom to top,
6. advection stencils per single-phase cavity, bottom to top,
7. air-sink edges, then the sink's own ambient conductance.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy.sparse import csr_matrix, diags
from scipy.sparse.linalg import splu

from .. import constants
from ..cooling import (
    TWO_PHASE_ANCHOR_W_PER_K,
    CoolingBackend,
    CoolingConfig,
    HydraulicState,
    backend_for_cavity,
)
from ..geometry.stack import Cavity, CoolingMode, Layer, StackDesign, TwoPhaseCavity
from ..keyed_cache import CacheInfo, KeyedCache
from ..obs.metrics import get_registry
from ..obs.trace import get_tracer
from ..units import celsius_to_kelvin, ml_per_min_to_m3_per_s
from .assembly import ConductanceBuilder
from .diagnostics import (
    FactorizationError,
    IterativeConvergenceError,
    NonFiniteFieldError,
    SolverDiagnostics,
    SolverGuard,
    SolverStats,
    ThermalInputError,
    condition_estimate_from_factor,
    relative_residual,
    validate_finite_array,
    validate_positive_scalar,
)
from .field import TemperatureField
from .grid import ThermalGrid
from .krylov import (
    SOLVER_CHOICES,
    AmgSolver,
    KrylovOptions,
    KrylovSolver,
    choose_backend,
)

DEFAULT_AMBIENT_K = celsius_to_kelvin(46.0)
"""Default air ambient [K].

The paper does not state the ambient; 46 degC is the rack/heat-sink inlet
value calibrated (once, see DESIGN.md section 7) so the air-cooled 2-tier
UltraSPARC T1 peaks near the 87 degC the paper reports while the 4-tier
stack lands at the reported ~178 degC.
"""

DEFAULT_INLET_K = celsius_to_kelvin(27.0)
"""Default coolant inlet temperature [K] (chilled-loop supply)."""

BlockRef = Tuple[str, str]

FlowSignature = Tuple[Tuple[str, float], ...]
"""Hashable description of the per-cavity flow state (see
:meth:`CompactThermalModel.flow_signature`)."""

FactorKey = Tuple[FlowSignature, float]
"""Cache key of one transient factorisation: ``(flow signature, dt)``."""

FactorEntry = Tuple[object, np.ndarray, csr_matrix]
"""One transient cache entry: ``(LU factor, boundary rhs, system matrix)``."""

KrylovEntry = Tuple[KrylovSolver, np.ndarray]
"""One transient iterative-path entry: ``(ILU-preconditioned solver,
boundary rhs)``."""

MAX_STEADY_FACTORS = 8
"""Steady-solve operators a model caches per tier (LRU): LU
factorisations, ILU preconditioners and AMG hierarchies."""

MAX_TRANSIENT_FACTORS = 16
"""LU factorisations, and ILU operators, of the transient system
``C/dt + A(f)`` a model caches (LRU), shared by every stepper and run
of the model."""

SPLU_OPTIONS = {
    "permc_spec": "MMD_AT_PLUS_A",
    "options": {"SymmetricMode": True},
}
"""SuperLU settings for factorising ``A(f)`` (and ``C/dt + A(f)``).

The RC conductance matrix is structurally symmetric and diagonally
dominant, so minimum-degree ordering on ``A^T + A`` with SuperLU's
symmetric mode roughly halves the LU fill-in versus the default
COLAMD ordering — measured ~1.7x faster factorisation and ~1.8x
faster triangular solves on the 2-tier stack at the default grid.
"""


def factorize(matrix, kind: str, what: str):
    """SuperLU factor of ``matrix`` in a ``thermal.factorize`` span.

    The span carries ``kind``, the node count and nnz(L+U) when a sink
    listens; a failure raises :class:`FactorizationError` naming
    ``what`` was being factorised.
    """
    tracer = get_tracer()
    with tracer.span("thermal.factorize") as span:
        try:
            factor = splu(matrix.tocsc(), **SPLU_OPTIONS)
        except Exception as exc:
            raise FactorizationError(
                f"{kind} LU factorisation failed for {what}: {exc}"
            ) from exc
        if tracer.has_sinks:
            span.set(kind=kind, nodes=factor.shape[0], nnz=factor.nnz)
    return factor

STEADY_CHAINS: Dict[str, Tuple[str, ...]] = {
    "amg": ("amg", "iterative", "direct"),
    "iterative": ("iterative", "direct"),
    "direct": ("direct",),
}
"""The guarded steady-solve chain of each resolved backend.

Every rung but the last is a warm-started Krylov solve; a rung that
fails to set up, converge or meet the residual guard hands the same
right-hand side to the next one, ending at the guarded direct LU.
"""

_RUNG_METHODS = {"amg": AmgSolver.method, "iterative": KrylovSolver.method}
"""``SolverDiagnostics.method`` of a solve accepted on each Krylov rung."""

# TWO_PHASE_ANCHOR_W_PER_K moved to repro.cooling with the backend
# layer; the import above keeps this module's historical re-export for
# tests/reference_assembly.py.


def _cooling_backends(
    stack: StackDesign, config: CoolingConfig
) -> Dict[str, CoolingBackend]:
    """A new cooling backend per cavity, dispatched on the cavity type."""
    return {
        element.name: backend_for_cavity(element, config)
        for element in stack.elements
        if isinstance(element, Cavity)
    }


class RunState:
    """Everything a run on a :class:`CompactThermalModel` changes.

    The per-cavity flows and two-phase flow commands, the Krylov warm
    starts, the dynamic cooling rhs delta and its power hand-over, the
    installed cooling faults, the steady-solve statistics and the
    cooling backends, with their evaporator march caches.  The model's
    ``__init__`` and :meth:`~CompactThermalModel.reset_run_state` both
    build a new one, so a reset model runs as a fresh one does.  The
    model keeps the rest: its set-up (grid, matrices, masks, injection
    operator) and the caches whose entries are functions of their key.
    """

    def __init__(self, model: "CompactThermalModel") -> None:
        flow = constants.FLOW_RATE_MAX_ML_MIN
        self.flow_ml_min = flow
        self.flows: Dict[str, float] = dict.fromkeys(model._cavity_levels, flow)
        self.cooling_flows: Dict[str, float] = dict.fromkeys(
            model._dynamic_levels, flow
        )
        self.backends = _cooling_backends(model.stack, model.cooling_config)
        # The last steady solution at each flow state, shared by the
        # Krylov rungs as their initial guess.
        self.warm: Dict[object, np.ndarray] = {}
        self.b_cooling: Optional[np.ndarray] = None
        # (packed powers, nodal vector) of the last update_cooling():
        # the thermal step of the same control period injects the same
        # powers, so power_vector_packed hands the vector over once.
        self.flux_power: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self.cooling_faults: List[object] = []
        self.steady_stats = SolverStats()
        self.last_steady_diagnostics: Optional[SolverDiagnostics] = None


class CompactThermalModel:
    """Compact transient/steady thermal model of a :class:`StackDesign`.

    Parameters
    ----------
    stack:
        The stack to model.
    nx, ny:
        In-plane grid resolution (cells along / across the flow).
    ambient:
        Air ambient temperature [K] (air-cooled mode).
    inlet_temperature:
        Coolant inlet temperature [K] (liquid mode).
    solver:
        Steady-solve backend: ``"direct"`` (sparse LU), ``"iterative"``
        (ILU-preconditioned BiCGSTAB with warm starts and a guarded
        direct fallback), ``"amg"`` (algebraic-multigrid-preconditioned
        BiCGSTAB — the raw-speed tier for large grids, guarded by the
        fallback chain amg -> iterative -> direct; see
        :data:`STEADY_CHAINS`) or ``"auto"`` (direct up to
        :data:`repro.thermal.krylov.DIRECT_NODE_LIMIT` nodes, AMG
        above — large grids stay out of LU fill-in memory).
    krylov:
        Tuning of the iterative path; defaults to
        :class:`~repro.thermal.krylov.KrylovOptions`.
    cooling:
        Run-time cooling configuration
        (:class:`~repro.cooling.CoolingConfig`).  The default static
        configuration reproduces the legacy behaviour bit for bit;
        ``CoolingConfig(dynamic=True)`` lets flow commands re-march the
        two-phase evaporator and move the saturation anchors at run
        time (see :meth:`update_cooling`).

    What a run changes lives in one :class:`RunState`,
    ``run_state``, which :meth:`reset_run_state` replaces whole.
    """

    def __init__(
        self,
        stack: StackDesign,
        nx: int = 23,
        ny: int = 20,
        ambient: float = DEFAULT_AMBIENT_K,
        inlet_temperature: float = DEFAULT_INLET_K,
        guard: Optional[SolverGuard] = None,
        solver: str = "auto",
        krylov: Optional[KrylovOptions] = None,
        cooling: Optional[CoolingConfig] = None,
    ) -> None:
        self.guard = guard if guard is not None else SolverGuard()
        if solver not in SOLVER_CHOICES:
            raise ValueError(
                f"unknown solver {solver!r}; choose from {SOLVER_CHOICES}"
            )
        self.solver = solver
        self.krylov_options = krylov if krylov is not None else KrylovOptions()
        self.stack = stack
        self.grid = ThermalGrid(stack, nx=nx, ny=ny)
        self.ambient = float(ambient)
        self.inlet_temperature = float(inlet_temperature)
        self._masks: Optional[Dict[BlockRef, np.ndarray]] = None
        self._cells_per_block: Optional[Dict[BlockRef, int]] = None
        self._block_order: Optional[List[BlockRef]] = None
        self._block_index: Optional[Dict[BlockRef, int]] = None
        self._injection: Optional[csr_matrix] = None
        # Solve operators, each keyed by the flow state (and dt) that
        # fully describes the matrix it came from: a flow change looks
        # up another key, so no stale entry can be served, and every
        # run on the model may share them.  Hits and misses of every
        # steady tier count in thermal.steady_cache.*, of both
        # transient paths in thermal.transient_cache.*; the occupancy
        # gauges follow the LU caches (last writer wins across models).
        steady = {
            "hits": "thermal.steady_cache.hits",
            "misses": "thermal.steady_cache.misses",
        }
        transient = {
            "hits": "thermal.transient_cache.hits",
            "misses": "thermal.transient_cache.misses",
        }
        self._steady_factors = KeyedCache(
            MAX_STEADY_FACTORS, gauges="thermal.steady_cache", **steady
        )
        # One ILU or AMG operator per flow state and Krylov tier.
        self._steady_ops: Dict[str, KeyedCache] = {
            tier: KeyedCache(MAX_STEADY_FACTORS, **steady)
            for tier in ("amg", "iterative")
        }
        # Transient LU factors of C/dt + A(f), keyed by (flow signature,
        # dt).  Each entry also holds the boundary rhs b(f) and the
        # matrix, so a cached step costs one spmv and one triangular
        # solve pair.  The iterative path keeps its ILU operators beside
        # them.
        self._transient_factors = KeyedCache(
            MAX_TRANSIENT_FACTORS, gauges="thermal.transient_cache", **transient
        )
        self._transient_krylov = KeyedCache(MAX_TRANSIENT_FACTORS, **transient)
        registry = get_registry()
        # Counted and traced when a Krylov rung hands over to the next.
        self._rung_fallbacks = {
            "amg": (
                registry.counter("solver.fallback.amg_to_iterative"),
                "amg.fallback",
            ),
            "iterative": (
                registry.counter("solver.fallback.iterative_to_direct"),
                "krylov.fallback",
            ),
        }
        # Cooling backends live in the run state.  The grid levels of
        # dynamic two-phase cavities are collected during assembly:
        # their moving saturation anchors enter the solves through
        # cooling_rhs(), never the matrix.
        self.cooling_config = cooling if cooling is not None else CoolingConfig()
        self._dynamic_levels: Dict[str, int] = {}
        self._c_cooling_updates = registry.counter("cooling.updates")
        with get_tracer().span(
            "thermal.assembly",
            nx=self.grid.nx,
            ny=self.grid.ny,
            nodes=self.grid.size,
            cooling=stack.cooling_mode.value,
        ):
            self._assemble()
        self.run_state = RunState(self)
        registry.counter("thermal.models_assembled").inc()

    # ------------------------------------------------------------------
    # assembly
    # ------------------------------------------------------------------

    def _assemble(self) -> None:
        grid = self.grid
        elements = self.stack.elements
        n = grid.size
        area = grid.cell_area
        dx, dy = grid.dx, grid.dy

        base = ConductanceBuilder(n)
        b_base = np.zeros(n)
        b_adv = np.zeros(n)
        capacitance = np.zeros(n)

        # Per-cavity fluid couplings from the backend layer: the
        # effective HTC and the coupling kind (advection stencil,
        # saturation anchor) each cavity level contributes.
        backends = _cooling_backends(self.stack, self.cooling_config)
        couplings = {
            name: backend.fluid_coupling() for name, backend in backends.items()
        }

        def vertical_half_resistance(element, a: float) -> float:
            """Half-cell vertical resistance of a solid element [K/W]."""
            assert isinstance(element, Layer)
            return element.thickness / (2.0 * element.material.conductivity * a)

        # Per-level lateral conductivities and volumetric capacities.
        lateral_kx: List[float] = []
        lateral_ky: List[float] = []
        for level, element in enumerate(elements):
            if isinstance(element, Cavity):
                geom = element.geometry
                phi = geom.porosity
                k_w = element.wall_material.conductivity
                k_f = element.coolant.conductivity
                lateral_kx.append(phi * k_f + (1.0 - phi) * k_w)
                lateral_ky.append(1.0 / (phi / k_f + (1.0 - phi) / k_w))
                c_v = (
                    phi * element.coolant.vol_heat_capacity
                    + (1.0 - phi) * element.wall_material.vol_heat_capacity
                )
            else:
                lateral_kx.append(element.material.conductivity)
                lateral_ky.append(element.material.conductivity)
                c_v = element.material.vol_heat_capacity
            # The enclosing level, NOT elements.index(element): index()
            # is O(levels) per element and resolves to the *first* equal
            # element, which mis-assigns the capacitance when two levels
            # compare equal (see the identical-layers regression test).
            volume = area * element.thickness
            capacitance[grid.level_slice(level)] = c_v * volume

        # Lateral conduction within each level: all x-edges, then all
        # y-edges, built from sliced index arrays.
        for level, element in enumerate(elements):
            t = element.thickness
            gx = lateral_kx[level] * (dy * t) / dx
            gy = lateral_ky[level] * (dx * t) / dy
            idx = grid.level_indices(level)
            base.add_edges(idx[:, :-1], idx[:, 1:], gx)
            base.add_edges(idx[:-1, :], idx[1:, :], gy)

        # Vertical coupling between adjacent levels.
        for level in range(len(elements) - 1):
            lower = elements[level]
            upper = elements[level + 1]
            if isinstance(lower, Cavity) and isinstance(upper, Cavity):
                raise ValueError("adjacent cavities are not supported")
            if isinstance(lower, Layer) and isinstance(upper, Layer):
                r = vertical_half_resistance(lower, area) + vertical_half_resistance(
                    upper, area
                )
                base.add_edges(
                    grid.level_indices(level),
                    grid.level_indices(level + 1),
                    1.0 / r,
                )
            else:
                cavity, cavity_level = (
                    (lower, level) if isinstance(lower, Cavity) else (upper, level + 1)
                )
                solid, solid_level = (
                    (upper, level + 1) if isinstance(lower, Cavity) else (lower, level)
                )
                assert isinstance(cavity, Cavity) and isinstance(solid, Layer)
                h_eff = couplings[cavity.name].effective_htc
                r = vertical_half_resistance(solid, area) + 1.0 / (h_eff * area)
                base.add_edges(
                    grid.level_indices(solid_level),
                    grid.level_indices(cavity_level),
                    1.0 / r,
                )

        # Wall-conduction bypass across each cavity (die below <-> die above).
        for level, element in enumerate(elements):
            if not isinstance(element, Cavity):
                continue
            if level == 0 or level == len(elements) - 1:
                raise ValueError("cavities must be bounded by solid layers")
            below = elements[level - 1]
            above = elements[level + 1]
            assert isinstance(below, Layer) and isinstance(above, Layer)
            geom = element.geometry
            wall_fraction = 1.0 - geom.porosity
            r = (
                vertical_half_resistance(below, area)
                + element.thickness
                / (element.wall_material.conductivity * wall_fraction * area)
                + vertical_half_resistance(above, area)
            )
            base.add_edges(
                grid.level_indices(level - 1),
                grid.level_indices(level + 1),
                1.0 / r,
            )

        # Anchor-coupled cavities (two-phase): fluid cells anchored at
        # the saturation temperature (evaporation absorbs heat
        # isothermally).  Dynamic backends are collected here; their
        # run-time anchor movement rides on cooling_rhs(), keeping the
        # assembled operators (and every cached factor) untouched.
        for level, element in enumerate(elements):
            if not isinstance(element, Cavity):
                continue
            coupling = couplings[element.name]
            if coupling.kind != "anchor":
                continue
            cells = grid.level_indices(level).ravel()
            base.add_diagonal(cells, coupling.anchor_w_per_k)
            b_base[grid.level_slice(level)] += (
                coupling.anchor_w_per_k * coupling.anchor_temperature_k
            )
            if backends[element.name].dynamic:
                self._dynamic_levels[element.name] = level

        # Advective transport in single-phase cavities (unit
        # capacity-rate pattern).  The actual contribution is
        # c(f) * A_adv with c(f) = rho cp Q / ny.  Cavities occupy
        # disjoint levels, so one shared builder produces the exact
        # union of the per-cavity stencils; the per-cavity matrices
        # (needed only for *unequal* per-cavity flows) are built
        # lazily by :meth:`cavity_advection_matrix`.
        adv = ConductanceBuilder(n)
        cavity_levels: Dict[str, int] = {}
        per_cavity_b: Dict[str, np.ndarray] = {}
        for level, element in enumerate(elements):
            if (
                not isinstance(element, Cavity)
                or couplings[element.name].kind != "advection"
            ):
                continue
            idx = grid.level_indices(level)
            adv.add_diagonal(idx.ravel(), 1.0)
            adv.add_off_diagonal(
                idx[:, 1:].ravel(), idx[:, :-1].ravel(), -1.0
            )
            c_b = np.zeros(n)
            c_b[idx[:, 0]] = 1.0  # times c(f) * T_inlet
            cavity_levels[element.name] = level
            per_cavity_b[element.name] = c_b
            b_adv += c_b

        # Lumped air heat sink on top (air mode).
        if grid.has_sink_node:
            top_level = len(elements) - 1
            top = elements[top_level]
            assert isinstance(top, Layer)
            sink = grid.sink_index
            g_cell = 1.0 / vertical_half_resistance(top, area)
            top_cells = grid.level_indices(top_level).ravel()
            base.add_edges(
                top_cells, np.full(top_cells.size, sink, dtype=np.int64), g_cell
            )
            base.add_diagonal([sink], self.stack.sink_conductance)
            b_base[sink] = self.stack.sink_conductance * self.ambient
            capacitance[sink] = self.stack.sink_capacitance

        self._a_base = base.to_csr()
        self._a_adv = adv.to_csr()
        self._cavity_levels = cavity_levels
        self._per_cavity_adv: Dict[str, csr_matrix] = {}
        self._per_cavity_b = per_cavity_b
        self._b_base = b_base
        self._b_adv = b_adv
        self._capacitance = capacitance

    # ------------------------------------------------------------------
    # flow handling
    # ------------------------------------------------------------------

    @property
    def flow_ml_min(self) -> float:
        """Current per-cavity flow rate [ml/min].

        When cavities run at *different* flows (see
        :meth:`set_cavity_flow`), the maximum is reported.
        """
        state = self.run_state
        return max(state.flows.values()) if state.flows else state.flow_ml_min

    @property
    def cavity_flows(self) -> Dict[str, float]:
        """Current flow rate per single-phase cavity [ml/min]."""
        return dict(self.run_state.flows)

    def flow_signature(self) -> FlowSignature:
        """Hashable description of the current flow state.

        Transient steppers and the steady-factor cache key their cached
        LU factorisations on this.
        """
        return tuple(
            sorted((n, round(f, 6)) for n, f in self.run_state.flows.items())
        )

    def set_flow(self, flow_ml_min: float) -> None:
        """Set one common per-cavity coolant flow rate [ml/min].

        All cavities receive the same flow rate, as in the paper's pump
        architecture (Section II-A).  Ignored (but validated) for
        air-cooled stacks.  Cached steady factors are keyed on the flow
        signature, so the change takes effect immediately — no stale
        factorisation can be served.
        """
        flow = float(validate_positive_scalar(flow_ml_min, "flow rate"))
        state = self.run_state
        state.flow_ml_min = flow
        state.flows = dict.fromkeys(state.flows, flow)
        state.cooling_flows = dict.fromkeys(state.cooling_flows, flow)

    def set_cavity_flow(self, cavity_name: str, flow_ml_min: float) -> None:
        """Set one cavity's flow rate independently [ml/min].

        An extension beyond the paper's single shared pump setting: a
        valve network can starve lightly loaded cavities (e.g. those
        between cache tiers) while feeding hot ones — see
        ``benchmarks/bench_ablation_percavity.py`` for the pay-off.
        """
        flow_ml_min = validate_positive_scalar(flow_ml_min, "flow rate")
        state = self.run_state
        if cavity_name in state.flows:
            state.flows[cavity_name] = float(flow_ml_min)
            return
        if cavity_name in self._dynamic_levels:
            # Dynamic two-phase cavity: the command feeds the next
            # update_cooling() march instead of the advection terms.
            state.cooling_flows[cavity_name] = float(flow_ml_min)
            return
        raise KeyError(
            f"no single-phase cavity named {cavity_name!r} "
            f"(have {sorted(state.flows)})"
        )

    def _capacity_rate_per_row(self, flow_ml_min: float) -> float:
        """Per-cell-row capacity rate c(f) = rho cp Q / ny [W/K]."""
        if self.stack.cooling_mode is CoolingMode.AIR or not self.stack.cavities:
            return 0.0
        coolant = self.stack.cavities[0].coolant
        volumetric = ml_per_min_to_m3_per_s(flow_ml_min)
        return coolant.heat_capacity_rate(volumetric) / self.grid.ny

    def _uniform_flow(self) -> Optional[float]:
        """The common flow rate if every cavity runs at one, else None.

        The uniform path (``A_base + c * A_adv``) is bit-for-bit
        identical to the per-cavity loop when flows agree: each matrix
        position is touched by at most one cavity, so both forms reduce
        to the same two-operand sums.
        """
        flows = set(self.run_state.flows.values())
        if len(flows) == 1:
            return next(iter(flows))
        return None

    def cavity_advection_matrix(self, cavity_name: str) -> csr_matrix:
        """Unit advection matrix of one single-phase cavity.

        Lazily built (and then cached) — only sweeps that drive the
        cavities at *unequal* flows ever need the per-cavity split; the
        common uniform-flow path uses the combined ``A_adv`` assembled
        up front.
        """
        cached = self._per_cavity_adv.get(cavity_name)
        if cached is not None:
            return cached
        if cavity_name not in self._cavity_levels:
            raise KeyError(
                f"no single-phase cavity named {cavity_name!r} "
                f"(have {sorted(self._cavity_levels)})"
            )
        idx = self.grid.level_indices(self._cavity_levels[cavity_name])
        builder = ConductanceBuilder(self.grid.size)
        builder.add_diagonal(idx.ravel(), 1.0)
        builder.add_off_diagonal(
            idx[:, 1:].ravel(), idx[:, :-1].ravel(), -1.0
        )
        matrix = builder.to_csr()
        self._per_cavity_adv[cavity_name] = matrix
        return matrix

    def system_matrix(self, flow_ml_min: Optional[float] = None) -> csr_matrix:
        """The conductance+advection matrix ``A(f)``.

        Parameters
        ----------
        flow_ml_min:
            Optional uniform flow override; the stored (possibly
            per-cavity) flow state applies when omitted.
        """
        flows = self.run_state.flows
        if not flows:
            return self._a_base
        if flow_ml_min is None:
            flow_ml_min = self._uniform_flow()
        if flow_ml_min is not None:
            c = self._capacity_rate_per_row(flow_ml_min)
            return self._a_base + c * self._a_adv
        matrix = self._a_base
        for name in flows:
            matrix = matrix + self._capacity_rate_per_row(
                flows[name]
            ) * self.cavity_advection_matrix(name)
        return matrix

    def boundary_rhs(self, flow_ml_min: Optional[float] = None) -> np.ndarray:
        """The boundary source vector ``b(f)`` (ambient + inlet terms)."""
        flows = self.run_state.flows
        if not flows:
            return self._b_base
        if flow_ml_min is None:
            flow_ml_min = self._uniform_flow()
        if flow_ml_min is not None:
            c = self._capacity_rate_per_row(flow_ml_min)
            return self._b_base + c * self.inlet_temperature * self._b_adv
        rhs = self._b_base.copy()
        for name, b in self._per_cavity_b.items():
            c = self._capacity_rate_per_row(flows[name])
            rhs += c * self.inlet_temperature * b
        return rhs

    @property
    def capacitance(self) -> np.ndarray:
        """Per-node thermal capacitance [J/K]."""
        return self._capacitance

    # ------------------------------------------------------------------
    # run-time cooling coupling (dynamic two-phase backends)
    # ------------------------------------------------------------------

    @property
    def cooled_cavity_names(self) -> List[str]:
        """Cavities that accept run-time flow commands.

        Single-phase cavities (advective flow terms) plus dynamic
        two-phase cavities (moving saturation anchors).
        """
        names = list(self._cavity_levels)
        names.extend(n for n in self._dynamic_levels if n not in names)
        return names

    def cooling_backend(self, cavity_name: str) -> CoolingBackend:
        """The cooling backend serving one cavity in this run."""
        backends = self.run_state.backends
        if cavity_name not in backends:
            raise KeyError(
                f"no cavity named {cavity_name!r} (have {sorted(backends)})"
            )
        return backends[cavity_name]

    def hydraulic_states(self) -> Dict[str, HydraulicState]:
        """Run-time hydraulic snapshot of every cavity backend."""
        return {
            name: backend.hydraulic_state()
            for name, backend in self.run_state.backends.items()
        }

    def dryout_margin(self) -> Optional[float]:
        """Smallest dry-out margin seen in this run.

        ``1 - max outlet quality`` across all dynamic two-phase
        cavities; ``None`` when no dynamic backend has marched yet.
        """
        margins = [
            self.run_state.backends[name].hydraulic_state().dryout_margin
            for name in self._dynamic_levels
        ]
        margins = [m for m in margins if m is not None]
        return min(margins) if margins else None

    def install_cooling_faults(self, faults: List[object]) -> None:
        """Attach inlet-quality fault models (see ``repro.faults``).

        Each fault exposes ``active(time)``, ``inlet_quality`` and an
        optional ``cavity`` filter; while active it floors the inlet
        vapour quality of the matching dynamic cavities, eroding the
        dry-out margin the way a starved or vapour-locked feed line
        would.  Flow faults without an ``inlet_quality`` (pump wear,
        clogs) act on the delivered flow instead and are ignored here.
        They stay installed for the rest of the run.
        """
        self.run_state.cooling_faults = [
            fault for fault in faults
            if getattr(fault, "inlet_quality", None) is not None
        ]

    def _inlet_quality_at(self, cavity_name: str, time: float) -> Optional[float]:
        """Resolve the (possibly fault-elevated) inlet quality."""
        quality = None
        for fault in self.run_state.cooling_faults:
            if fault.cavity is not None and fault.cavity != cavity_name:
                continue
            if not fault.active(time):
                continue
            value = float(fault.inlet_quality)
            if quality is None or value > quality:
                quality = value
        return quality

    def _column_heat_flux(self, packed: Optional[np.ndarray]) -> np.ndarray:
        """Footprint heat flux per x-column, per dynamic cavity [W/m^2].

        The chip's per-column nodal power (one spmv on the packed block
        powers) split evenly across the dynamic cavities and divided by
        the column strip footprint ``dx * (ny dy)``.
        """
        grid = self.grid
        strip_area = grid.cell_area * grid.ny
        if packed is None:
            return np.zeros(grid.nx)
        nodal = self.power_vector_packed(packed)
        self.run_state.flux_power = (packed.copy(), nodal)
        levels = nodal[: grid.levels * grid.ny * grid.nx]
        per_column = levels.reshape(grid.levels, grid.ny, grid.nx).sum(
            axis=(0, 1)
        )
        share = max(1, len(self._dynamic_levels))
        return per_column / (share * strip_area)

    def update_cooling(
        self, packed: Optional[np.ndarray] = None, time: float = 0.0
    ) -> bool:
        """Quasi-static cooling update for one control step.

        Drives every dynamic two-phase backend with its commanded flow
        (see :meth:`set_flow` / :meth:`set_cavity_flow`) and the
        current footprint heat-flux pattern; the marched row-averaged
        saturation profile replaces the static anchor temperature
        through :meth:`cooling_rhs`.  A cheap no-op (returns ``False``)
        without dynamic backends, so legacy single-phase and static
        two-phase paths are untouched.

        Raises
        ------
        CoolingDryoutError
            When a backend's march dries out; part of the
            :class:`~repro.thermal.diagnostics.ThermalSolveError`
            taxonomy, so guarded callers report it instead of crashing.
        """
        if not self._dynamic_levels:
            return False
        state = self.run_state
        flux = self._column_heat_flux(packed)
        delta = np.zeros(self.grid.size)
        with get_tracer().span(
            "cooling.update", cavities=len(self._dynamic_levels)
        ):
            for name, level in self._dynamic_levels.items():
                backend = state.backends[name]
                flow = state.cooling_flows.get(name, state.flow_ml_min)
                profile = backend.respond_to_flow(
                    flow,
                    flux,
                    inlet_quality=self._inlet_quality_at(name, time),
                )
                if profile is None:
                    continue
                self.grid.level_view(delta, level)[:] = TWO_PHASE_ANCHOR_W_PER_K * (
                    profile - backend.cavity.saturation_k
                )
        state.b_cooling = delta
        self._c_cooling_updates.inc()
        return True

    def cooling_rhs(self) -> Optional[np.ndarray]:
        """Dynamic cooling correction to the boundary source vector.

        The per-node delta ``G_anchor (T_sat,marched - T_sat,static)``
        of the last :meth:`update_cooling`, or ``None`` when the
        anchors are static.  Added to the right-hand side at solve
        time — the assembled matrices and every cached factorisation
        stay valid while the saturation field moves.
        """
        return self.run_state.b_cooling

    # ------------------------------------------------------------------
    # power injection
    # ------------------------------------------------------------------

    def block_masks(self) -> Dict[BlockRef, np.ndarray]:
        """Boolean cell masks of every powered floorplan block."""
        if self._masks is None:
            masks: Dict[BlockRef, np.ndarray] = {}
            for layer in self.stack.source_layers:
                assert layer.floorplan is not None
                per_block = layer.floorplan.cell_area_fractions(
                    self.grid.nx, self.grid.ny
                )
                for block_name, mask in per_block.items():
                    masks[(layer.name, block_name)] = mask
            self._masks = masks
            self._cells_per_block = {
                ref: int(mask.sum()) for ref, mask in masks.items()
            }
            empty = [ref for ref, count in self._cells_per_block.items() if count == 0]
            if empty:
                raise ValueError(
                    f"blocks {empty} own no grid cells; refine the grid"
                )
            self._build_injection()
        return self._masks

    def _build_injection(self) -> None:
        """Precompute the sparse power-injection operator.

        Column ``k`` of the ``(n_nodes, n_blocks)`` matrix spreads one
        watt of block ``block_order[k]`` uniformly over its grid cells,
        so the nodal power vector is a single spmv on the packed
        per-block power array.
        """
        assert self._masks is not None and self._cells_per_block is not None
        order = list(self._masks)
        self._block_order = order
        self._block_index = {ref: k for k, ref in enumerate(order)}
        rows: List[np.ndarray] = []
        cols: List[np.ndarray] = []
        vals: List[np.ndarray] = []
        for k, ref in enumerate(order):
            level = self.grid.level_of(ref[0])
            cells = self.grid.flat_indices(level, self._masks[ref])
            rows.append(cells)
            cols.append(np.full(cells.size, k, dtype=np.int64))
            vals.append(np.full(cells.size, 1.0 / self._cells_per_block[ref]))
        self._injection = csr_matrix(
            (
                np.concatenate(vals),
                (np.concatenate(rows), np.concatenate(cols)),
            ),
            shape=(self.grid.size, len(order)),
        )

    @property
    def block_order(self) -> List[BlockRef]:
        """Canonical block ordering of the packed power array."""
        self.block_masks()
        assert self._block_order is not None
        return list(self._block_order)

    def injection_operator(self) -> csr_matrix:
        """The ``(n_nodes, n_blocks)`` power-injection matrix."""
        self.block_masks()
        assert self._injection is not None
        return self._injection

    def pack_powers(self, block_powers: Dict[BlockRef, float]) -> np.ndarray:
        """Validate and pack a block-power mapping into the canonical order.

        Parameters
        ----------
        block_powers:
            Mapping from ``(layer name, block name)`` to block power [W].
            Every key must name a block of a source layer; blocks without
            an entry dissipate nothing.
        """
        self.block_masks()
        assert self._block_index is not None
        packed = np.zeros(len(self._block_index))
        index = self._block_index
        for ref, power in block_powers.items():
            k = index.get(ref)
            if k is None:
                raise KeyError(f"unknown block {ref}")
            if not np.isfinite(power):
                raise ThermalInputError(
                    f"non-finite power {power!r} for block {ref}; "
                    "check the upstream power model"
                )
            if power < 0.0:
                raise ThermalInputError(f"negative power for block {ref}")
            packed[k] += power
        return packed

    def power_vector_packed(self, packed: np.ndarray) -> np.ndarray:
        """Nodal power vector from a packed per-block power array [W]."""
        state = self.run_state
        handed, state.flux_power = state.flux_power, None
        if handed is not None and np.array_equal(handed[0], packed):
            return handed[1]
        operator = self.injection_operator()
        if packed.shape != (operator.shape[1],):
            raise ValueError(
                f"packed powers have shape {packed.shape}, "
                f"expected ({operator.shape[1]},)"
            )
        validate_finite_array(packed, "packed block powers", non_negative=True)
        return operator @ packed

    def power_vector(self, block_powers: Dict[BlockRef, float]) -> np.ndarray:
        """Build the nodal power-injection vector [W].

        One sparse matrix-vector product against the precomputed
        injection operator (see :meth:`pack_powers` for the accepted
        mapping).
        """
        return self.power_vector_packed(self.pack_powers(block_powers))

    # ------------------------------------------------------------------
    # solving
    # ------------------------------------------------------------------

    def steady_factor(self, flow_ml_min: Optional[float] = None):
        """Cached sparse LU factorisation of ``A(f)`` for steady solves.

        Repeated solves at the same flow state (sweeps, sensor
        calibration) skip the CSC conversion and refactorisation.  Keys
        are flow signatures (or the explicit uniform override), so
        :meth:`set_flow` / :meth:`set_cavity_flow` can never leave a
        stale factor behind.
        """
        key = self._steady_key(flow_ml_min)
        return self._steady_factors.get(
            key,
            lambda: factorize(
                self.system_matrix(flow_ml_min), "steady", f"flow state {key!r}"
            ),
        )

    def _steady_key(self, flow_ml_min: Optional[float]) -> object:
        if flow_ml_min is not None:
            return ("uniform", round(float(flow_ml_min), 6))
        return self.flow_signature()

    def evict_steady_factor(self, flow_ml_min: Optional[float] = None) -> bool:
        """Drop one cached steady factor (a poisoned-factor escape hatch).

        Returns whether an entry was actually evicted.  Guarded solves
        call this when a factor produces non-finite or out-of-tolerance
        solutions, so a retry refactorises instead of reusing the bad
        factor.  Covers every backend: the LU factor, the ILU
        preconditioner/warm-start state and the AMG hierarchy of the
        same key.
        """
        key = self._steady_key(flow_ml_min)
        caches = (self._steady_factors, *self._steady_ops.values())
        dropped = [cache.pop(key) for cache in caches]
        self.run_state.warm.pop(key, None)
        return any(dropped)

    def steady_cache_info(self) -> CacheInfo:
        """Hit/miss statistics of the steady caches of every tier; the
        size is the LU cache's."""
        caches = (self._steady_factors, *self._steady_ops.values())
        return self._steady_factors.info()._replace(
            hits=sum(cache.hits for cache in caches),
            misses=sum(cache.misses for cache in caches),
        )

    def clear_steady_cache(self) -> None:
        """Drop all cached steady factorisations (and their statistics).

        Covers every backend: direct LU factors, the iterative path's
        ILU preconditioners, the AMG hierarchies and the shared
        warm-start guesses.
        """
        for cache in (self._steady_factors, *self._steady_ops.values()):
            cache.clear()
        self.run_state.warm.clear()

    def reset_run_state(self) -> None:
        """Start the next run where a fresh model starts.

        Replaces :attr:`run_state` with a new :class:`RunState`: the
        flows go back to the shared 32.3 ml/min pump setting, the Krylov
        steady rungs start cold, and the cooling backends, faults and
        steady statistics start anew.  What stays is the set-up and
        every cache keyed by the full matrix it came from: steady and
        transient LU factors, ILU preconditioners, AMG hierarchies, the
        block masks and the injection operator.  So a run on a reused
        model equals a run on a fresh one bitwise.
        """
        self.run_state = RunState(self)

    def _transient_matrix(self, dt: float) -> csr_matrix:
        return self.system_matrix() + diags(self._capacitance / dt)

    def transient_factor(self, dt: float) -> FactorEntry:
        """Cached ``(LU factor, boundary rhs, matrix)`` of ``C/dt + A(f)``
        at the current flow state (see :class:`TransientStepper`).

        Keyed by ``(flow signature, dt)`` and bounded by
        :data:`MAX_TRANSIENT_FACTORS` (LRU); the boundary rhs is taken at
        the model's fixed ``inlet_temperature`` and ``ambient``.
        """
        key: FactorKey = (self.flow_signature(), dt)

        def build() -> FactorEntry:
            matrix = self._transient_matrix(dt)
            factor = factorize(matrix, "transient", f"key {key!r}")
            return factor, self.boundary_rhs(), matrix

        return self._transient_factors.get(key, build)

    def transient_krylov(self, dt: float) -> KrylovEntry:
        """Cached ``(ILU-preconditioned solver, boundary rhs)`` of
        ``C/dt + A(f)``, the iterative twin of :meth:`transient_factor`."""
        return self._transient_krylov.get(
            (self.flow_signature(), dt),
            lambda: (
                KrylovSolver(self._transient_matrix(dt), self.krylov_options),
                self.boundary_rhs(),
            ),
        )

    def evict_transient_factor(self, dt: float) -> bool:
        """Drop the transient LU factor of the current flow state at
        ``dt``; returns whether one was cached (a poisoned-factor escape
        hatch)."""
        return self._transient_factors.pop((self.flow_signature(), dt))

    def evict_transient_krylov(self, dt: float) -> bool:
        """Drop the transient ILU operator of the current flow state at
        ``dt``; returns whether one was cached."""
        return self._transient_krylov.pop((self.flow_signature(), dt))

    def transient_cache_info(self) -> CacheInfo:
        """Hit/miss statistics of the transient LU cache."""
        return self._transient_factors.info()

    def steady_backend(self) -> str:
        """The resolved steady-solve backend for this model's grid.

        ``"auto"`` resolves by problem size (see
        :func:`repro.thermal.krylov.choose_backend`); explicit
        ``"direct"`` / ``"iterative"`` / ``"amg"`` requests pass
        through.  It names the first rung of the steady chain.
        """
        return choose_backend(self.solver, self.grid.size)

    def steady_operator(
        self, tier: Optional[str] = None, flow_ml_min: Optional[float] = None
    ):
        """Cached solve operator of one steady rung for ``A(f)``.

        ``tier`` defaults to :meth:`steady_backend`, the first rung of
        this model's chain, so one call warms whatever a steady solve
        tries first.  ``"direct"`` returns :meth:`steady_factor`;
        ``"iterative"`` an ILU-preconditioned
        :class:`~repro.thermal.krylov.KrylovSolver`; ``"amg"`` an
        :class:`~repro.thermal.krylov.AmgSolver` whose hierarchy setup
        is handed the grid extents so the pure-scipy builder
        aggregates geometrically (see :mod:`repro.thermal.amg`).
        Krylov operators are keyed by the same flow signatures as the
        LU factors and bounded per tier by the same LRU budget; an
        evicted flow state also loses its warm-start guess.
        """
        if tier is None:
            tier = self.steady_backend()
        if tier == "direct":
            return self.steady_factor(flow_ml_min)

        def build():
            matrix = self.system_matrix(flow_ml_min)
            if tier == "amg":
                return AmgSolver(
                    matrix,
                    self.krylov_options,
                    grid_shape=(self.grid.levels, self.grid.ny, self.grid.nx),
                    n_extra=1 if self.grid.has_sink_node else 0,
                )
            return KrylovSolver(matrix, self.krylov_options)

        warm = self.run_state.warm
        return self._steady_ops[tier].get(
            self._steady_key(flow_ml_min),
            build,
            on_evict=lambda evicted: warm.pop(evicted, None),
        )

    def _krylov_rung(
        self, tier: str, q: np.ndarray, flow_ml_min: Optional[float]
    ) -> Tuple[Optional[np.ndarray], Optional[int], Optional[float]]:
        """One warm-started Krylov solve of the steady chain.

        Returns ``(values, iterations, residual)`` with ``values`` set
        to ``None`` on failure; ``iterations`` counts this rung's own
        solve only (``None`` when its operator could not be set up).
        A non-convergent or out-of-tolerance solve evicts the operator
        (it may have been built from a poisoned matrix) and its warm
        start, so the next solve at that flow state starts clean.
        """
        key = self._steady_key(flow_ml_min)
        try:
            solver = self.steady_operator(tier, flow_ml_min)
        except FactorizationError:
            return None, None, None
        warm = self.run_state.warm
        before = solver.iterations_total
        try:
            values, iterations = solver.solve(q, x0=warm.get(key))
        except IterativeConvergenceError:
            values, iterations = None, solver.iterations_total - before
        residual = None
        if values is not None and self.guard.residual_tolerance is not None:
            residual = relative_residual(solver.matrix, values, q)
            if residual > self.guard.residual_tolerance:
                values = None
        if values is None:
            self._steady_ops[tier].pop(key)
            warm.pop(key, None)
            return None, iterations, residual
        warm[key] = values
        return values, iterations, residual

    @property
    def steady_stats(self) -> SolverStats:
        """Running counters over this run's steady solves."""
        return self.run_state.steady_stats

    @property
    def last_steady_diagnostics(self) -> Optional[SolverDiagnostics]:
        """The health record of this run's last steady solve."""
        return self.run_state.last_steady_diagnostics

    def steady_state(
        self,
        block_powers: Dict[BlockRef, float],
        flow_ml_min: Optional[float] = None,
    ) -> TemperatureField:
        """Steady-state temperature field for constant block powers.

        Walks the chain :data:`STEADY_CHAINS` names for
        :meth:`steady_backend`: large grids run AMG-preconditioned
        BiCGSTAB (warm-started per flow state) and drop to ILU, then to
        the direct LU, when a rung fails; small grids run the direct
        LU outright.  Each hop is counted
        (``solver.fallback.amg_to_iterative`` /
        ``solver.fallback.iterative_to_direct``) and traced
        (``amg.fallback`` / ``krylov.fallback``), and the accepted
        solve's ``iterations`` sum the Krylov rungs it tried.  The
        direct rung is guarded per ``self.guard``: non-finite solutions
        evict the (poisoned) cached factor, one refactorised retry is
        attempted, and a persistent failure raises
        :class:`~repro.thermal.diagnostics.NonFiniteFieldError`.  The
        health record of the last solve is kept in
        ``last_steady_diagnostics``; running counters in
        ``steady_stats``.
        """
        state = self.run_state
        tracer = get_tracer()
        backend = self.steady_backend()
        with tracer.span(
            "thermal.steady_solve", backend=backend, nodes=self.grid.size
        ):
            q = self.power_vector(block_powers) + self.boundary_rhs(flow_ml_min)
            # Dynamic two-phase anchors enter as a pure rhs delta; the
            # matrix (and every cached factor/preconditioner) is
            # untouched, and the branch is never taken on legacy paths.
            cooling = self.cooling_rhs()
            if cooling is not None:
                q = q + cooling
            chain = STEADY_CHAINS[backend]
            iterations: Optional[int] = None
            amg_fallback = False
            for tier in chain[:-1]:
                values, rung_iterations, residual = self._krylov_rung(
                    tier, q, flow_ml_min
                )
                if rung_iterations is not None:
                    iterations = (iterations or 0) + rung_iterations
                if values is not None:
                    diagnostics = SolverDiagnostics(
                        kind="steady",
                        residual_norm=residual,
                        finite=True,
                        method=_RUNG_METHODS[tier],
                        iterations=iterations,
                        fallback_to_iterative=amg_fallback,
                    )
                    state.last_steady_diagnostics = diagnostics
                    state.steady_stats.record(diagnostics)
                    return TemperatureField(self.grid, values)
                counter, event = self._rung_fallbacks[tier]
                counter.inc()
                tracer.event(event, kind="steady", iterations=rung_iterations)
                amg_fallback = amg_fallback or tier == "amg"
            return self._steady_direct(
                q,
                flow_ml_min,
                fallback=len(chain) > 1,
                iterations=iterations,
                amg_fallback=amg_fallback,
            )

    def _steady_direct(
        self,
        q: np.ndarray,
        flow_ml_min: Optional[float],
        fallback: bool = False,
        iterations: Optional[int] = None,
        amg_fallback: bool = False,
    ) -> TemperatureField:
        """The guarded direct-LU steady solve (the chain's last rung)."""
        state = self.run_state
        factor = self.steady_factor(flow_ml_min)
        values = factor.solve(q)
        evictions = 0
        if self.guard.check_finite and not np.all(np.isfinite(values)):
            # Poisoned or broken factor: evict, refactorise, retry once.
            self.evict_steady_factor(flow_ml_min)
            evictions = 1
            factor = self.steady_factor(flow_ml_min)
            values = factor.solve(q)
            if not np.all(np.isfinite(values)):
                diagnostics = SolverDiagnostics(
                    kind="steady",
                    finite=False,
                    condition_estimate=condition_estimate_from_factor(factor),
                    factor_evictions=evictions,
                    iterations=iterations,
                    fallback_to_direct=fallback,
                    fallback_to_iterative=amg_fallback,
                )
                state.last_steady_diagnostics = diagnostics
                raise NonFiniteFieldError(
                    "steady solve produced non-finite temperatures even "
                    "after refactorisation; the system matrix is singular "
                    "or badly scaled",
                    diagnostics,
                )
        residual = None
        condition = None
        if self.guard.residual_tolerance is not None:
            residual = relative_residual(
                self.system_matrix(flow_ml_min), values, q
            )
            condition = condition_estimate_from_factor(factor)
            if residual > self.guard.residual_tolerance:
                diagnostics = SolverDiagnostics(
                    kind="steady",
                    residual_norm=residual,
                    finite=True,
                    condition_estimate=condition,
                    factor_evictions=evictions,
                    iterations=iterations,
                    fallback_to_direct=fallback,
                    fallback_to_iterative=amg_fallback,
                )
                state.last_steady_diagnostics = diagnostics
                self.evict_steady_factor(flow_ml_min)
                raise NonFiniteFieldError(
                    f"steady solve residual {residual:.3e} exceeds the "
                    f"configured tolerance "
                    f"{self.guard.residual_tolerance:.3e}",
                    diagnostics,
                )
        diagnostics = SolverDiagnostics(
            kind="steady",
            residual_norm=residual,
            finite=True,
            condition_estimate=condition,
            factor_evictions=evictions,
            iterations=iterations,
            fallback_to_direct=fallback,
            fallback_to_iterative=amg_fallback,
        )
        state.last_steady_diagnostics = diagnostics
        state.steady_stats.record(diagnostics)
        return TemperatureField(self.grid, values)

    def uniform_field(self, temperature_k: float) -> TemperatureField:
        """A field with every node at the same temperature."""
        return TemperatureField(
            self.grid, np.full(self.grid.size, float(temperature_k))
        )

    # ------------------------------------------------------------------
    # energy bookkeeping
    # ------------------------------------------------------------------

    def heat_removed_by_coolant(
        self, field: TemperatureField, flow_ml_min: Optional[float] = None
    ) -> float:
        """Heat carried out by the coolant in a given state [W].

        Single-phase cavities carry out ``mdot cp (T_outlet - T_inlet)``
        per row; two-phase cavities absorb through their saturation
        anchors.  At steady state the sum equals the injected power
        (energy conservation, verified by the test suite).

        Parameters
        ----------
        field:
            The temperature state.
        flow_ml_min:
            Optional uniform flow override, as passed to
            :meth:`steady_state`; the stored (possibly per-cavity) flow
            state applies when omitted.
        """
        total = 0.0
        for level, element in enumerate(self.stack.elements):
            if not isinstance(element, Cavity):
                continue
            view = self.grid.level_view(field.values, level)
            if isinstance(element, TwoPhaseCavity):
                anchor = element.saturation_k
                if (
                    element.name in self._dynamic_levels
                    and self.run_state.b_cooling is not None
                ):
                    backend = self.run_state.backends[element.name]
                    state = backend.hydraulic_state()
                    if state.saturation_k is not None:
                        # Marched per-row anchors (broadcast across y).
                        anchor = state.saturation_k[None, :]
                total += float(
                    TWO_PHASE_ANCHOR_W_PER_K * (view - anchor).sum()
                )
            else:
                c = self._capacity_rate_per_row(
                    self.run_state.flows[element.name]
                    if flow_ml_min is None
                    else flow_ml_min
                )
                if c > 0.0:
                    outlet = view[:, -1]
                    total += float(
                        c * (outlet - self.inlet_temperature).sum()
                    )
        return total

    def heat_removed_by_sink(self, field: TemperatureField) -> float:
        """Heat leaving through the air sink in a given state [W]."""
        if not self.grid.has_sink_node:
            return 0.0
        return self.stack.sink_conductance * (
            field.sink_temperature() - self.ambient
        )
