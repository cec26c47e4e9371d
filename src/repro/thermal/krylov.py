"""Preconditioned Krylov solves for large thermal grids.

Beyond roughly 200x200 cells per level the sparse direct LU becomes
memory-bound: SuperLU fill-in grows superlinearly with the grid, so a
300x300 4-tier stack (over a million nodes) needs many gigabytes for
the factors alone.  The system ``A(f) = A_base + c(f) A_adv`` is an
M-matrix (symmetric positive-definite conductance part) plus a skew
upwind-advection part, which is exactly the regime where an incomplete
LU preconditioner with a nonsymmetric Krylov method shines:

* **ILU** with a modest drop tolerance captures the strong vertical /
  lateral couplings at a small multiple of ``nnz(A)`` memory,
* **BiCGSTAB** handles the (mild) nonsymmetry of the advection stencil
  without the long recurrences of GMRES,
* **warm starts** from the previous solution (transient state, or the
  last steady solve at the same flow point) cut the iteration count to
  a handful on the closed-loop and sweep hot paths.

:func:`choose_backend` resolves a request to one of three tiers: the
direct LU, ILU-preconditioned BiCGSTAB (:class:`KrylovSolver`) or
AMG-preconditioned BiCGSTAB (:class:`AmgSolver`); ``"auto"`` picks
direct up to :data:`DIRECT_NODE_LIMIT` nodes and AMG above it.  Both
solver classes package one preconditioned operator so the steady and
transient paths cache them exactly like LU factors.  Non-convergence
raises :class:`~repro.thermal.diagnostics.IterativeConvergenceError`,
which the steady chain (amg -> iterative -> direct) and the transient
stepper catch to fall back to the next rung.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import LinearOperator, bicgstab, spilu

from ..obs.metrics import get_registry
from ..obs.trace import get_tracer
from .diagnostics import FactorizationError, IterativeConvergenceError

DIRECT_NODE_LIMIT = 75_000
"""Node count above which ``"auto"`` leaves the direct path for AMG.

Calibrated on the 4-tier stack (see
``benchmarks/bench_solver_crossover.py``): on a *cold single* solve
the Krylov tiers already win at 50x50 per level (30k nodes) and are
many times faster at 100x100 (120k nodes) with a fraction of the
memory.  The limit is deliberately higher than that cold crossover
because the closed-loop and sweep paths amortise one cached LU over
many repeated solves, where direct stays ahead until fill-in memory
dominates.
"""

SOLVER_CHOICES = ("auto", "direct", "iterative", "amg")
"""Accepted solver-backend selections.

``"amg"`` runs BiCGSTAB preconditioned by an algebraic-multigrid
V-cycle (see :mod:`repro.thermal.amg`) — the raw-speed tier for large
steady grids, with a guarded fallback chain amg -> iterative ->
direct.  ``"iterative"`` runs ILU-preconditioned BiCGSTAB (guarded by
the direct LU); ``"auto"`` resolves by size in :func:`choose_backend`.
"""

def choose_backend(requested: str, n_nodes: int) -> str:
    """Resolve a solver request to a concrete backend tier.

    Parameters
    ----------
    requested:
        ``"auto"``, ``"direct"``, ``"iterative"`` or ``"amg"``.
        Explicit requests pass through; ``"auto"`` picks by problem
        size: direct at or below :data:`DIRECT_NODE_LIMIT`, AMG above
        it (AMG beats ILU at every measured size, so plain ILU serves
        only as the AMG tier's guarded fallback).
    n_nodes:
        Problem size (grid nodes).
    """
    if requested not in SOLVER_CHOICES:
        raise ValueError(
            f"unknown solver {requested!r}; choose from {SOLVER_CHOICES}"
        )
    if requested != "auto":
        resolved = requested
    elif n_nodes <= DIRECT_NODE_LIMIT:
        resolved = "direct"
    else:
        resolved = "amg"
    _count_selection(resolved)
    return resolved


_SELECTION_COUNTERS: dict = {}


def _count_selection(resolved: str) -> None:
    """Count backend resolutions in the global metrics registry."""
    counter = _SELECTION_COUNTERS.get(resolved)
    if counter is None:
        counter = get_registry().counter(
            f"solver.backend_selected.{resolved}"
        )
        _SELECTION_COUNTERS[resolved] = counter
    counter.inc()


@dataclass(frozen=True)
class KrylovOptions:
    """Tuning knobs of the ILU-preconditioned BiCGSTAB solve.

    Attributes
    ----------
    rtol, atol:
        Convergence test ``||r|| <= max(rtol * ||b||, atol)``.  The
        default ``rtol`` keeps iterative temperatures within ~1e-8 of
        the direct solve on calibration grids.
    maxiter:
        Iteration budget before
        :class:`~repro.thermal.diagnostics.IterativeConvergenceError`.
        Cold-start counts grow roughly linearly with the grid side
        (57 at 50x50 per level to ~550 at 300x300 on the 4-tier
        stack), so the default leaves headroom beyond the largest
        benchmarked grid; warm starts need a small fraction of it.
    drop_tol, fill_factor:
        ILU sparsity controls (see ``scipy.sparse.linalg.spilu``).  The
        defaults keep the preconditioner near ``4 x nnz(A)`` — measured
        best wall-time on the 4-tier stack and far below direct-LU
        fill at large grids.
    """

    rtol: float = 1e-10
    atol: float = 0.0
    maxiter: int = 2000
    drop_tol: float = 1e-3
    fill_factor: float = 4.0

    def __post_init__(self) -> None:
        if not (self.rtol > 0.0 or self.atol > 0.0):
            raise ValueError("one of rtol/atol must be positive")
        if self.maxiter < 1:
            raise ValueError("maxiter must be at least 1")


class KrylovSolver:
    """One preconditioned iterative operator, cacheable like an LU factor.

    Parameters
    ----------
    matrix:
        The system matrix (``A(f)`` for steady solves, ``C/dt + A(f)``
        for transient steps).  Converted to CSC once for the ILU.
    options:
        Solver tuning; defaults to :class:`KrylovOptions`.

    The ILU factorisation happens in the constructor so the steady /
    transient caches can account it exactly like a direct
    factorisation; each :meth:`solve` then costs only the BiCGSTAB
    sweeps.  ``iterations_total`` accumulates across solves for
    observability.
    """

    method = "bicgstab"

    def __init__(
        self,
        matrix,
        options: Optional[KrylovOptions] = None,
    ) -> None:
        self.options = options if options is not None else KrylovOptions()
        self.matrix = matrix.tocsr()
        csc = csc_matrix(matrix)
        try:
            self._ilu = spilu(
                csc,
                drop_tol=self.options.drop_tol,
                fill_factor=self.options.fill_factor,
            )
        except Exception as exc:
            raise FactorizationError(
                f"ILU preconditioner construction failed: {exc}"
            ) from exc
        # An explicit dtype: scipy would infer it from one ILU solve.
        self._preconditioner = LinearOperator(
            matrix.shape, matvec=self._ilu.solve, dtype=np.float64
        )
        self.iterations_total = 0
        self.solve_count = 0

    def solve(
        self,
        rhs: np.ndarray,
        x0: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, int]:
        """Solve ``A x = rhs``; returns ``(solution, iterations)``.

        Parameters
        ----------
        rhs:
            Right-hand side (1-D).
        x0:
            Warm-start initial guess; a good guess (previous transient
            state, previous steady solve at the same flow point) cuts
            the iteration count dramatically.

        Raises
        ------
        IterativeConvergenceError
            When BiCGSTAB exhausts ``maxiter`` or breaks down, or the
            solution contains non-finite entries.
        """
        iterations = 0

        def count(_xk: np.ndarray) -> None:
            nonlocal iterations
            iterations += 1

        solution, info = bicgstab(
            self.matrix,
            rhs,
            x0=x0,
            rtol=self.options.rtol,
            atol=self.options.atol,
            maxiter=self.options.maxiter,
            M=self._preconditioner,
            callback=count,
        )
        self.iterations_total += iterations
        self.solve_count += 1
        if info != 0 or not np.all(np.isfinite(solution)):
            raise IterativeConvergenceError(
                f"BiCGSTAB did not converge (info={info}) after "
                f"{iterations} iterations at rtol={self.options.rtol:g}"
            )
        return solution, iterations


class AmgSolver:
    """AMG-preconditioned BiCGSTAB, cacheable like an LU factor.

    The raw-speed twin of :class:`KrylovSolver`: the (expensive)
    hierarchy construction happens in the constructor so the steady
    cache can account it exactly like an LU/ILU setup, and each
    :meth:`solve` costs a handful of V-cycle-preconditioned BiCGSTAB
    sweeps.  The iteration count grows only slowly with the grid: a
    cold 4-tier liquid solve takes 12, 12 and 22 iterations at 50, 100
    and 200 cells per level, once the finest level line-smooths the
    coolant rows (19, 36 and 78 with point Jacobi alone).  ILU
    iteration counts grow much faster with the grid side.

    Parameters
    ----------
    matrix:
        The system matrix ``A(f)``.
    options:
        Convergence controls (``rtol``/``atol``/``maxiter``); the ILU
        knobs of :class:`KrylovOptions` are ignored here.
    amg:
        Hierarchy knobs; defaults to
        :class:`~repro.thermal.amg.AmgOptions`.
    grid_shape, n_extra:
        Grid extents ``(levels, ny, nx)`` plus trailing off-grid node
        count, enabling the geometric aggregation fast path (see
        :class:`~repro.thermal.amg.AmgPreconditioner`).

    Setup failures raise
    :class:`~repro.thermal.diagnostics.FactorizationError`;
    non-convergence raises
    :class:`~repro.thermal.diagnostics.IterativeConvergenceError`.
    The tiered steady path catches both to fall back to the ILU tier.
    """

    method = "bicgstab+amg"

    def __init__(
        self,
        matrix,
        options: Optional[KrylovOptions] = None,
        amg: Optional["object"] = None,
        grid_shape: Optional[Tuple[int, int, int]] = None,
        n_extra: int = 0,
    ) -> None:
        from .amg import AmgOptions, AmgPreconditioner

        self.options = options if options is not None else KrylovOptions()
        self.matrix = matrix.tocsr()
        self.preconditioner = AmgPreconditioner(
            self.matrix,
            amg if amg is not None else AmgOptions(),
            grid_shape=grid_shape,
            n_extra=n_extra,
        )
        self._operator = self.preconditioner.aslinearoperator()
        self.iterations_total = 0
        self.solve_count = 0
        registry = get_registry()
        self._c_solves = registry.counter("solver.amg.solves")
        self._c_iterations = registry.counter("solver.amg.iterations")

    def solve(
        self,
        rhs: np.ndarray,
        x0: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, int]:
        """Solve ``A x = rhs``; returns ``(solution, iterations)``.

        Raises
        ------
        IterativeConvergenceError
            When BiCGSTAB exhausts ``maxiter`` or breaks down, or the
            solution contains non-finite entries.
        """
        iterations = 0

        def count(_xk: np.ndarray) -> None:
            nonlocal iterations
            iterations += 1

        with get_tracer().span(
            "solver.amg.solve", nodes=self.matrix.shape[0]
        ):
            solution, info = bicgstab(
                self.matrix,
                rhs,
                x0=x0,
                rtol=self.options.rtol,
                atol=self.options.atol,
                maxiter=self.options.maxiter,
                M=self._operator,
                callback=count,
            )
        self.iterations_total += iterations
        self.solve_count += 1
        self._c_solves.inc()
        self._c_iterations.inc(iterations)
        if info != 0 or not np.all(np.isfinite(solution)):
            raise IterativeConvergenceError(
                f"AMG-preconditioned BiCGSTAB did not converge "
                f"(info={info}) after {iterations} iterations at "
                f"rtol={self.options.rtol:g}"
            )
        return solution, iterations
