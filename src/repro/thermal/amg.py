"""Algebraic-multigrid preconditioning for large steady thermal solves.

The conductance matrix ``A(f) = A_base + c(f) A_adv`` is an M-matrix:
a 7-point Poisson-like stencil plus a mild upwind-advection part.  ILU
preconditioning (PR 3) keeps the memory near ``4 x nnz(A)`` but its
iteration count still grows with the grid side, and both the ILU setup
and each triangular sweep are strictly sequential.  Algebraic
multigrid restores near-O(n) behaviour: a hierarchy of coarsened
Galerkin operators whose V-cycle contracts all error frequencies at
once, applied here as a preconditioner for BiCGSTAB (the advection
stencil keeps ``A`` mildly nonsymmetric, so plain CG is not safe).

The hierarchy is a hand-rolled pure-scipy smoothed aggregation, built
by recursively applying two-level aggregation: geometric ``(z, y, x)``
block aggregates when the caller supplies the grid shape (the thermal
model always does), a deterministic priority-MIS algebraic aggregation
for matrices with no known geometry, a damped-Jacobi-smoothed
prolongator, Galerkin coarse operators ``P^T A P``, damped-Jacobi
pre/post smoothing and a sparse direct solve on the coarsest level.

Coolant line smoothing.  Point Jacobi cannot damp error that the
coolant carries along a channel: a fluid cell is coupled almost only to
its neighbours along the channel, most strongly to its upstream one
through the advection, so with point smoothing alone the cold iteration
count grew with the grid (a 4-tier liquid stack at 20 ml/min and 2 W
per block took 19, 36 and 78 BiCGSTAB iterations at 50, 100 and 200
cells per level).  The finest level therefore relaxes every grid row
whose x-couplings are nonsymmetric — exactly the rows of the
single-phase cavities, which flow from column 0 to column ``nx - 1`` —
with a damped block-Jacobi step that solves each row's tridiagonal
system exactly (LAPACK ``dgttrf`` once per hierarchy, ``dgttrs`` per
sweep).  Every other node, the off-grid sink node and every coarse
level keep the point-Jacobi step; a matrix without advection
(air-cooled, or two-phase only) runs the plain V-cycle.  The same cold
solves now take 12, 12 and 22 iterations.

Determinism: every random choice (spectral-radius probe vectors, the
algebraic aggregation priorities) draws from a fixed-seed generator, so
two hierarchies built from the same matrix are identical and repeated
solves are bitwise reproducible.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse
from scipy.linalg.lapack import dgttrf, dgttrs
from scipy.sparse.linalg import LinearOperator, splu

from ..obs.metrics import get_registry
from ..obs.trace import get_tracer
from .diagnostics import FactorizationError

@dataclass(frozen=True)
class AmgOptions:
    """Hierarchy-construction knobs of the AMG preconditioner.

    Attributes
    ----------
    block:
        Geometric aggregate extents ``(bz, by, bx)`` applied per
        coarsening step when the grid shape is known.  The default
        ``(2, 4, 4)`` (32 fine cells per aggregate) measured best
        total wall time on the 4-tier crossover sweep: bigger blocks
        cheapen the setup, smaller ones the iteration count.
    presmooth, postsmooth:
        Damped-Jacobi sweeps before/after each coarse-grid correction
        (block Jacobi along the coolant lines of the finest level).
    coarse_limit:
        Recursion stops when a level has at most this many unknowns;
        that level is factorised with a sparse direct LU.
    max_levels:
        Hard cap on hierarchy depth (a runaway-coarsening backstop).
    smooth_prolongator:
        Apply one damped-Jacobi smoothing step to the tentative
        piecewise-constant prolongator (classic smoothed aggregation).
        Disabling it gives plain aggregation: cheaper setup, more
        iterations.
    strength_theta:
        Relative strength-of-connection threshold of the *algebraic*
        aggregation used when no grid shape is available.
    rho_iterations:
        Power-iteration count of the deterministic spectral-radius
        estimate behind the Jacobi damping factors.
    seed:
        Seed of every probe/priority vector (determinism contract).
    """

    block: Tuple[int, int, int] = (2, 4, 4)
    presmooth: int = 2
    postsmooth: int = 2
    coarse_limit: int = 3000
    max_levels: int = 12
    smooth_prolongator: bool = True
    strength_theta: float = 0.08
    rho_iterations: int = 8
    seed: int = 0

    def __post_init__(self) -> None:
        if any(b < 1 for b in self.block):
            raise ValueError("aggregate block extents must be >= 1")
        if all(b == 1 for b in self.block):
            raise ValueError("aggregate block must coarsen some axis")
        if self.presmooth < 0 or self.postsmooth < 0:
            raise ValueError("smoothing sweep counts must be >= 0")
        if self.presmooth == 0 and self.postsmooth == 0:
            raise ValueError("at least one smoothing sweep is required")
        if self.coarse_limit < 1:
            raise ValueError("coarse_limit must be >= 1")
        if self.max_levels < 1:
            raise ValueError("max_levels must be >= 1")
        if not (0.0 <= self.strength_theta < 1.0):
            raise ValueError("strength_theta must be in [0, 1)")
        if self.rho_iterations < 1:
            raise ValueError("rho_iterations must be >= 1")


def geometric_aggregates(
    shape: Tuple[int, int, int], block: Tuple[int, int, int]
) -> Tuple[np.ndarray, Tuple[int, int, int]]:
    """Block aggregates of a ``(nz, ny, nx)`` grid.

    Returns the per-node aggregate index (flat, grid layout
    ``z * ny * nx + y * nx + x`` — exactly
    :meth:`repro.thermal.grid.ThermalGrid` ordering) and the coarse
    grid shape, so coarsening composes: the coarse level is itself a
    grid and can be aggregated geometrically again.
    """
    nz, ny, nx = shape
    bz, by, bx = block
    cz, cy, cx = -(-nz // bz), -(-ny // by), -(-nx // bx)
    z = np.arange(nz) // bz
    y = np.arange(ny) // by
    x = np.arange(nx) // bx
    agg = (z[:, None, None] * cy + y[None, :, None]) * cx + x[None, None, :]
    return (
        np.ascontiguousarray(np.broadcast_to(agg, (nz, ny, nx))).ravel(),
        (cz, cy, cx),
    )


def _row_reduce_max(values: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Per-CSR-row maximum of ``values`` (``-inf`` for empty rows)."""
    out = np.full(indptr.size - 1, -np.inf)
    nonempty = np.flatnonzero(np.diff(indptr) > 0)
    if values.size:
        reduced = np.maximum.reduceat(values, indptr[nonempty])
        out[nonempty] = reduced
    return out


def algebraic_aggregates(
    matrix: sparse.spmatrix,
    theta: float = 0.08,
    seed: int = 0,
) -> Tuple[np.ndarray, int]:
    """Deterministic strength-based aggregation of an arbitrary matrix.

    The strength graph keeps off-diagonal entries with ``|a_ij| >=
    theta * max_k |a_ik|``.  Roots are chosen as local maxima of a
    fixed-seed random priority among still-unaggregated strong
    neighbours (a Luby-style maximal independent set, fully vectorised
    with ``np.maximum.reduceat``); every remaining node then joins the
    strongest adjacent aggregate, and leftovers isolated from any
    aggregate become singletons.  Returns ``(aggregate index per node,
    aggregate count)``.
    """
    A = matrix.tocsr()
    n = A.shape[0]
    off = A.copy()
    off.setdiag(0.0)
    off.eliminate_zeros()
    mags = np.abs(off.data)
    row_of = np.repeat(np.arange(n), np.diff(off.indptr))
    row_max = _row_reduce_max(mags, off.indptr)
    keep = mags >= theta * np.where(
        np.isfinite(row_max), row_max, 0.0
    )[row_of]
    strength = sparse.csr_matrix(
        (mags[keep], (row_of[keep], off.indices[keep])), shape=A.shape
    )

    priority = np.random.RandomState(seed).rand(n)
    agg = np.full(n, -1, dtype=np.int64)
    n_agg = 0
    # Root selection rounds: a node roots a new aggregate when its
    # priority beats every unaggregated strong neighbour's.
    for _ in range(n):
        unassigned = agg < 0
        if not unassigned.any():
            break
        masked = np.where(unassigned, priority, -np.inf)
        neighbour_best = _row_reduce_max(
            masked[strength.indices], strength.indptr
        )
        roots = unassigned & (priority > neighbour_best)
        if not roots.any():
            break
        root_idx = np.flatnonzero(roots)
        agg[root_idx] = n_agg + np.arange(root_idx.size)
        n_agg += root_idx.size
        # Attach each unassigned node to its strongest rooted neighbour.
        rooted = agg >= 0
        cand = rooted[strength.indices] * strength.data
        best = _row_reduce_max(
            np.where(cand > 0.0, cand, -np.inf), strength.indptr
        )
        joinable = (agg < 0) & np.isfinite(best) & (best > 0.0)
        for i in np.flatnonzero(joinable):
            row = slice(strength.indptr[i], strength.indptr[i + 1])
            cols = strength.indices[row]
            vals = np.where(agg[cols] >= 0, strength.data[row], -np.inf)
            agg[i] = agg[cols[int(np.argmax(vals))]]
    # Nodes with no strong ties at all: singleton aggregates.
    left = np.flatnonzero(agg < 0)
    agg[left] = n_agg + np.arange(left.size)
    n_agg += left.size
    return agg, n_agg


def coolant_rows(
    matrix: sparse.spmatrix, shape: Tuple[int, int, int]
) -> np.ndarray:
    """Grid rows ``z * ny + y`` whose x-couplings are nonsymmetric.

    Conduction couples neighbours symmetrically; the upwind advection
    of a single-phase cavity adds ``-c`` to each cell's coupling to
    its upstream (``x - 1``) neighbour only.  So ``A[i, i-1] !=
    A[i-1, i]`` picks out exactly the coolant rows, and a matrix
    without advection has none.
    """
    nz, ny, nx = shape
    n_grid = nz * ny * nx
    if nx < 2:
        return np.empty(0, dtype=np.int64)
    A = matrix.tocsr()
    upstream = A.diagonal(-1)[: n_grid - 1]  # A[i+1, i]
    downstream = A.diagonal(1)[: n_grid - 1]  # A[i, i+1]
    # Pair k couples cells k and k+1; the last pair of a grid row
    # crosses into the next row, so that column is dropped.
    asymmetric = np.append(upstream != downstream, False)
    return np.flatnonzero(asymmetric.reshape(nz * ny, nx)[:, :-1].any(axis=1))


class _ScipyAmg:
    """Recursive two-level smoothed-aggregation hierarchy (pure scipy)."""

    def __init__(
        self,
        matrix: sparse.spmatrix,
        options: AmgOptions,
        grid_shape: Optional[Tuple[int, int, int]] = None,
        n_extra: int = 0,
    ) -> None:
        self.options = options
        A = matrix.tocsr()
        self._As: List[sparse.csr_matrix] = []
        self._Ps: List[sparse.csr_matrix] = []
        self._Rs: List[sparse.csr_matrix] = []
        self._dinv: List[np.ndarray] = []
        self._omega: List[float] = []
        self._lines: List[Tuple[slice, tuple]] = []
        self.line_unknowns = 0
        shape = grid_shape
        while (
            A.shape[0] > options.coarse_limit
            and len(self._As) < options.max_levels - 1
        ):
            dinv, omega = self._jacobi_parameters(A)
            P, shape = self._prolongator(A, dinv, omega, shape, n_extra)
            if P.shape[1] >= A.shape[0]:
                break  # aggregation stalled; stop coarsening here
            R = P.T.tocsr()
            self._As.append(A)
            self._Ps.append(P)
            self._Rs.append(R)
            self._dinv.append(dinv)
            if len(self._As) == 1 and grid_shape is not None:  # finest
                self._factor_lines(A, grid_shape)
                if self._lines:
                    omega = self._damping(A, lambda v: self._precondition(0, v))
            self._omega.append(omega)
            A = (R @ (A @ P)).tocsr()
        try:
            self._coarse = splu(A.tocsc())
        except Exception as exc:  # pragma: no cover - defensive
            raise FactorizationError(
                f"AMG coarse-level factorisation failed: {exc}"
            ) from exc
        self._coarse_n = A.shape[0]
        self.level_sizes = [m.shape[0] for m in self._As] + [A.shape[0]]
        nnz_fine = max(1, matrix.nnz)
        self.operator_complexity = (
            sum(m.nnz for m in self._As) + A.nnz
        ) / nnz_fine

    # -- construction ---------------------------------------------------

    def _jacobi_parameters(
        self, A: sparse.csr_matrix
    ) -> Tuple[np.ndarray, float]:
        """Inverse diagonal and damping factor ``4 / (3 rho(D^-1 A))``."""
        d = A.diagonal()
        bad = d == 0.0
        if bad.any():
            d = np.where(bad, 1.0, d)
        dinv = 1.0 / d
        return dinv, self._damping(A, lambda v: dinv * v)

    def _damping(self, A: sparse.csr_matrix, precondition) -> float:
        """``4 / (3 rho(M^-1 A))`` by fixed-seed power iteration."""
        rng = np.random.RandomState(self.options.seed)
        x = rng.rand(A.shape[0])
        rho = 1.0
        for _ in range(self.options.rho_iterations):
            x = precondition(A @ x)
            norm = float(np.linalg.norm(x))
            if norm == 0.0 or not np.isfinite(norm):
                rho = 1.0
                break
            rho = norm
            x /= norm
        return 4.0 / (3.0 * max(rho, np.finfo(float).tiny))

    def _factor_lines(
        self, A: sparse.csr_matrix, shape: Tuple[int, int, int]
    ) -> None:
        """LU-factor the tridiagonal x-line blocks of the coolant rows.

        Consecutive coolant rows form one contiguous node range (one
        cavity level), factored by a single ``dgttrf`` call with the
        couplings across row ends zeroed so each row stays its own
        block.
        """
        rows = coolant_rows(A, shape)
        if rows.size == 0:
            return
        nx = shape[2]
        diagonal = A.diagonal()
        upstream = A.diagonal(-1)
        downstream = A.diagonal(1)
        for run in np.split(rows, np.flatnonzero(np.diff(rows) != 1) + 1):
            start, stop = int(run[0]) * nx, (int(run[-1]) + 1) * nx
            lower = upstream[start : stop - 1].copy()
            upper = downstream[start : stop - 1].copy()
            lower[nx - 1 :: nx] = 0.0
            upper[nx - 1 :: nx] = 0.0
            *factors, info = dgttrf(lower, diagonal[start:stop], upper)
            if info != 0:
                raise FactorizationError(
                    f"coolant line factorisation failed: dgttrf info={info} "
                    f"on nodes {start}..{stop - 1}"
                )
            self._lines.append((slice(start, stop), tuple(factors)))
            self.line_unknowns += stop - start

    def _prolongator(
        self,
        A: sparse.csr_matrix,
        dinv: np.ndarray,
        omega: float,
        shape: Optional[Tuple[int, int, int]],
        n_extra: int,
    ) -> Tuple[sparse.csr_matrix, Optional[Tuple[int, int, int]]]:
        """One smoothed-aggregation prolongator and the next grid shape."""
        n = A.shape[0]
        if shape is not None:
            grid_n = shape[0] * shape[1] * shape[2]
            if grid_n + n_extra != n:
                raise ValueError(
                    f"grid shape {shape} (+{n_extra} extra) does not "
                    f"match a {n}-node matrix"
                )
            agg_grid, coarse_shape = geometric_aggregates(
                shape, self.options.block
            )
            nc_grid = coarse_shape[0] * coarse_shape[1] * coarse_shape[2]
            # Off-grid nodes (the lumped air-sink) keep singleton
            # aggregates appended after the coarse grid.
            agg = np.concatenate(
                [agg_grid, nc_grid + np.arange(n_extra)]
            )
            nc = nc_grid + n_extra
            next_shape: Optional[Tuple[int, int, int]] = coarse_shape
        else:
            agg, nc = algebraic_aggregates(
                A, self.options.strength_theta, self.options.seed
            )
            next_shape = None
        tentative = sparse.csr_matrix(
            (np.ones(n), (np.arange(n), agg)), shape=(n, nc)
        )
        if not self.options.smooth_prolongator:
            return tentative, next_shape
        smoothed = tentative - sparse.diags(omega * dinv) @ (A @ tentative)
        return smoothed.tocsr(), next_shape

    # -- application ----------------------------------------------------

    def _precondition(self, level: int, r: np.ndarray) -> np.ndarray:
        """``M^-1 r``: point Jacobi, with exact solves on coolant lines."""
        z = self._dinv[level] * r
        if level == 0:
            for span, factors in self._lines:
                z[span] = dgttrs(*factors, r[span])[0]
        return z

    def _cycle(self, level: int, b: np.ndarray) -> np.ndarray:
        if level == len(self._As):
            return self._coarse.solve(b)
        A = self._As[level]
        omega = self._omega[level]
        x = omega * self._precondition(level, b)  # first sweep from x = 0
        for _ in range(self.options.presmooth - 1):
            x = x + omega * self._precondition(level, b - A @ x)
        residual = b - A @ x
        x = x + self._Ps[level] @ self._cycle(
            level + 1, self._Rs[level] @ residual
        )
        for _ in range(self.options.postsmooth):
            x = x + omega * self._precondition(level, b - A @ x)
        return x

    def cycle(self, b: np.ndarray) -> np.ndarray:
        """One V-cycle approximating ``A^-1 b`` (the preconditioner)."""
        return self._cycle(0, b)


class AmgPreconditioner:
    """One AMG hierarchy: setup once, V-cycles forever.

    Parameters
    ----------
    matrix:
        The system matrix ``A(f)``.
    options:
        Hierarchy knobs; defaults to :class:`AmgOptions`.
    grid_shape:
        Optional ``(levels, ny, nx)`` extents of the thermal grid
        behind the matrix; enables the fast geometric aggregation and
        the coolant line smoother.  ``n_extra`` trailing off-grid
        nodes (the lumped air sink) become singleton aggregates.

    Setup failures raise
    :class:`~repro.thermal.diagnostics.FactorizationError` so the
    tiered solve paths treat a broken hierarchy exactly like a broken
    ILU/LU factorisation (fall back one tier).  Setup wall time,
    hierarchy depth, coolant line unknowns and operator complexity
    land in the ``solver.amg.*`` metrics and a ``solver.amg.setup``
    span.
    """

    def __init__(
        self,
        matrix: sparse.spmatrix,
        options: Optional[AmgOptions] = None,
        grid_shape: Optional[Tuple[int, int, int]] = None,
        n_extra: int = 0,
    ) -> None:
        self.options = options if options is not None else AmgOptions()
        self.shape = matrix.shape
        registry = get_registry()
        start = time.perf_counter()
        with get_tracer().span(
            "solver.amg.setup", nodes=matrix.shape[0], nnz=matrix.nnz
        ):
            try:
                self._hierarchy = _ScipyAmg(
                    matrix, self.options, grid_shape, n_extra
                )
            except FactorizationError:
                registry.counter("solver.amg.setup_failures").inc()
                raise
            except Exception as exc:
                registry.counter("solver.amg.setup_failures").inc()
                raise FactorizationError(
                    f"AMG hierarchy construction failed: {exc}"
                ) from exc
        self.setup_seconds = time.perf_counter() - start
        registry.counter("solver.amg.setups").inc()
        registry.gauge("solver.amg.levels").set(len(self.level_sizes))
        registry.gauge("solver.amg.line_unknowns").set(self.line_unknowns)
        registry.gauge("solver.amg.operator_complexity").set(
            self.operator_complexity
        )

    @property
    def level_sizes(self) -> Sequence[int]:
        """Unknown counts per hierarchy level, finest first."""
        return self._hierarchy.level_sizes

    @property
    def operator_complexity(self) -> float:
        """``sum(nnz(A_l)) / nnz(A_0)`` — the classic memory metric."""
        return self._hierarchy.operator_complexity

    @property
    def line_unknowns(self) -> int:
        """Fine-level unknowns relaxed by the coolant line smoother."""
        return self._hierarchy.line_unknowns

    def cycle(self, b: np.ndarray) -> np.ndarray:
        """One V-cycle approximating ``A^-1 b``."""
        return self._hierarchy.cycle(b)

    def aslinearoperator(self) -> LinearOperator:
        """The V-cycle as a scipy ``LinearOperator`` (Krylov ``M=``); the
        explicit ``dtype`` spares the V-cycle scipy would run to infer it."""
        return LinearOperator(self.shape, matvec=self.cycle, dtype=np.float64)
