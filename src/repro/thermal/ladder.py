"""The guarded solve ladder of the compact thermal model.

Every steady solve (:meth:`CompactThermalModel.steady_state`) and every
backward-Euler step (:class:`~repro.thermal.solver.TransientStepper`)
walks one chain of rungs, resolved once per model from its backend
(:data:`CHAINS`).  Each rung but the last is a warm-started Krylov
solve: ILU- or AMG-preconditioned BiCGSTAB.  A rung whose operator
fails to set up, whose solve does not converge, or whose solution fails
the residual guard evicts its operator and warm start, counts the hop
in ``solver.fallback.<tier>_to_<next>``, emits ``amg.fallback`` or
``krylov.fallback`` and hands the same right-hand side to the next
rung.  The last rung is the guarded direct LU: a solution that is not
finite, or whose residual exceeds the guard's tolerance, evicts the
factor, refactorises once and solves again; a second failure fails the
walk, and the caller raises (steady) or backs off in ``dt``
(transient).

The operators live in five :class:`~repro.keyed_cache.KeyedCache`
instances on the model (:func:`new_caches`), one per kind and tier,
keyed by ``(flow signature, dt)`` with ``dt=None`` for steady solves.
A key fully describes its matrix, so every run on the model shares
them.  Each entry is an :class:`Operator`: the solver, the boundary
vector ``b(f)`` and the matrix, so a cached direct step costs one
triangular solve pair, one vector multiply and two vector adds.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Dict, NamedTuple, Optional, Tuple

import numpy as np
from scipy.sparse import csr_matrix, diags
from scipy.sparse.linalg import splu

from ..keyed_cache import CacheInfo, KeyedCache, SizeGauge
from ..obs.metrics import get_registry
from ..obs.trace import get_tracer
from .diagnostics import (
    FactorizationError,
    IterativeConvergenceError,
    SolverDiagnostics,
    all_finite,
    condition_estimate_from_factor,
    relative_residual,
)
from .krylov import AmgSolver, KrylovSolver

if TYPE_CHECKING:  # pragma: no cover
    from .model import CompactThermalModel

CHAINS: Dict[str, Dict[str, Tuple[str, ...]]] = {
    "steady": {
        "amg": ("amg", "iterative", "direct"),
        "iterative": ("iterative", "direct"),
        "direct": ("direct",),
    },
    # The C/dt shift makes transient systems so diagonally dominant
    # that ILU-BiCGSTAB converges in a few sweeps: a hierarchy per
    # (flow, dt) key would cost more setup than it saves.
    "transient": {
        "amg": ("iterative", "direct"),
        "iterative": ("iterative", "direct"),
        "direct": ("direct",),
    },
}
"""The rung chain of each kind of solve, by resolved backend."""

TIERS = {"steady": ("direct", "iterative", "amg"), "transient": ("direct", "iterative")}
"""The operator caches of each kind, one per tier."""

_EVENTS = {"amg": "amg.fallback", "iterative": "krylov.fallback"}
"""The trace event of a hop off each Krylov rung."""

MAX_STEADY_FACTORS = 8
"""Steady-solve operators a model caches per tier (LRU): LU
factorisations, ILU preconditioners and AMG hierarchies."""

MAX_TRANSIENT_FACTORS = 16
"""Operators of the transient system ``C/dt + A(f)`` a model caches per
tier (LRU), shared by every stepper and run of the model."""

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

Key = Tuple[Tuple[Tuple[str, float], ...], Optional[float]]
"""``(flow signature, dt)``; ``dt`` is ``None`` for steady solves."""


class Operator(NamedTuple):
    """One cached rung operator."""

    solver: object
    """A SuperLU factor, a :class:`KrylovSolver` or an :class:`AmgSolver`."""
    boundary: np.ndarray
    """The boundary vector ``b(f)`` of the key's flow state."""
    matrix: csr_matrix
    """The matrix the solver was built from, for the residual guard."""


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


def new_caches() -> Dict[str, Dict[str, KeyedCache]]:
    """A model's five operator caches, by kind and tier.

    The tiers of a kind count their hits and misses in
    ``thermal.<kind>_cache.hits``/``misses`` and their entries together
    in the ``thermal.<kind>_cache.currsize`` gauge (last model to
    resize wins); ``maxsize`` is the per-tier bound.
    """
    caches = {}
    for kind, maxsize in (
        ("steady", MAX_STEADY_FACTORS),
        ("transient", MAX_TRANSIENT_FACTORS),
    ):
        prefix = f"thermal.{kind}_cache"
        gauge = SizeGauge(prefix, maxsize)
        caches[kind] = {
            tier: KeyedCache(
                maxsize,
                hits=f"{prefix}.hits",
                misses=f"{prefix}.misses",
                gauge=gauge,
            )
            for tier in TIERS[kind]
        }
    return caches


def cache_info(model: "CompactThermalModel", kind: str) -> CacheInfo:
    """Hits, misses and entries of every tier of ``kind``, summed; the
    size bound is the per-tier one."""
    caches = model.caches[kind]
    return CacheInfo(
        sum(cache.hits for cache in caches.values()),
        sum(cache.misses for cache in caches.values()),
        sum(len(cache.entries) for cache in caches.values()),
        caches["direct"].maxsize,
    )


def operator(
    model: "CompactThermalModel",
    kind: str,
    tier: str,
    key: Key,
    flow: Optional[float] = None,
) -> Operator:
    """The cached operator of one rung at ``key``, built on a miss.

    ``flow`` is the uniform flow override of a steady solve (the
    stored flow state applies when it is ``None``); a transient key's
    ``dt`` shifts the matrix by ``C/dt``.  AMG hierarchies are handed
    the grid extents, so the pure-scipy builder aggregates
    geometrically (see :mod:`repro.thermal.amg`).  A steady Krylov
    operator that the LRU pushes out takes its warm start with it.
    """
    dt = key[1]

    def build() -> Operator:
        matrix = model.system_matrix(flow)
        if dt is not None:
            matrix = matrix + diags(model.capacitance / dt)
        boundary = model.boundary_rhs(flow)
        if tier == "direct":
            return Operator(factorize(matrix, kind, f"key {key!r}"), boundary, matrix)
        if tier == "amg":
            grid = model.grid
            solver = AmgSolver(
                matrix,
                model.krylov_options,
                grid_shape=(grid.levels, grid.ny, grid.nx),
                n_extra=1 if grid.has_sink_node else 0,
            )
        else:
            solver = KrylovSolver(matrix, model.krylov_options)
        return Operator(solver, boundary, solver.matrix)

    on_evict = None
    if kind == "steady" and tier != "direct":
        on_evict = partial(_drop_warm_start, model.run_state.warm)
    return model.caches[kind][tier].get(key, build, on_evict=on_evict)


def _drop_warm_start(warm: Dict[Key, np.ndarray], key: Key) -> None:
    warm.pop(key, None)


def evict(model: "CompactThermalModel", kind: str, tier: str, key: Key) -> bool:
    """Drop the operator of one rung at ``key``, and a steady key's warm
    start: the escape hatch from an operator built from, or broken by,
    a poisoned matrix.  Returns whether an operator was cached."""
    if kind == "steady":
        model.run_state.warm.pop(key, None)
    return model.caches[kind][tier].pop(key)


def solve(
    model: "CompactThermalModel",
    kind: str,
    key: Key,
    load: np.ndarray,
    flow: Optional[float] = None,
    x0: Optional[np.ndarray] = None,
) -> Tuple[Optional[np.ndarray], Optional[SolverDiagnostics]]:
    """Walk the model's chain of ``kind`` at ``key``.

    ``load`` is the right-hand side without the boundary vector: the
    nodal power of a steady solve, ``C/dt T_n + P`` of a step.  The
    walk adds the key's boundary vector and the dynamic cooling delta
    into it in place, so the caller hands over an array it owns.  A
    steady Krylov rung warm-starts from the last solution it accepted
    at ``key``; a transient one from ``x0``, the previous state.

    Returns ``(values, diagnostics)``: ``values`` is ``None`` when the
    direct rung failed its guard twice, and ``diagnostics`` is ``None``
    for a clean solve of a direct-only chain with no residual guard,
    the common step, which needs no record of its own.
    """
    chain = model.chains[kind]
    tolerance = model.guard.residual_tolerance
    rhs = None
    iterations = None
    hops: Tuple[str, ...] = ()
    for tier, following in zip(chain, chain[1:]):
        if kind == "steady":
            x0 = model.run_state.warm.get(key)
        values = residual = rung_iterations = None
        try:
            solver, boundary, matrix = operator(model, kind, tier, key, flow)
        except FactorizationError:
            pass
        else:
            if rhs is None:
                rhs = _add_sources(model, load, boundary)
            before = solver.iterations_total
            try:
                values, rung_iterations = solver.solve(rhs, x0=x0)
            except IterativeConvergenceError:
                rung_iterations = solver.iterations_total - before
            iterations = (iterations or 0) + rung_iterations
            if values is not None and tolerance is not None:
                residual = relative_residual(matrix, values, rhs)
                if residual > tolerance:
                    values = None
        if values is not None:
            if kind == "steady":
                model.run_state.warm[key] = values
            return values, SolverDiagnostics(
                kind=kind,
                residual_norm=residual,
                method=solver.method,
                iterations=iterations,
                fallback_to_iterative="amg" in hops,
            )
        evict(model, kind, tier, key)
        get_registry().counter(f"solver.fallback.{tier}_to_{following}").inc()
        get_tracer().event(_EVENTS[tier], kind=kind, iterations=rung_iterations)
        hops += (tier,)

    for evictions in (0, 1):
        if evictions:
            evict(model, kind, "direct", key)
        factor, boundary, matrix = operator(model, kind, "direct", key, flow)
        if rhs is None:
            rhs = _add_sources(model, load, boundary)
        values = factor.solve(rhs)
        finite = all_finite(values)
        residual = None
        if finite and tolerance is not None:
            residual = relative_residual(matrix, values, rhs)
        if finite and (residual is None or residual <= tolerance):
            if residual is None and not evictions and not hops:
                return values, None
            break
    else:
        values = None
    condition = None
    if residual is not None or evictions or values is None:
        condition = condition_estimate_from_factor(factor)
    return values, SolverDiagnostics(
        kind=kind,
        residual_norm=residual,
        finite=finite,
        condition_estimate=condition,
        factor_evictions=evictions,
        iterations=iterations,
        fallback_to_direct=bool(hops),
        fallback_to_iterative="amg" in hops,
    )


def _add_sources(
    model: "CompactThermalModel", load: np.ndarray, boundary: np.ndarray
) -> np.ndarray:
    """``load + b(f)``, plus the dynamic two-phase anchors' rhs delta
    when they moved (the matrix, and every cached operator, stays)."""
    load += boundary
    cooling = model.run_state.b_cooling
    if cooling is not None:
        load += cooling
    return load
