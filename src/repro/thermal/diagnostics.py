"""Solver diagnostics and the thermal solve error taxonomy.

Every steady or transient solve can fail in one of a small number of
ways — the factorisation itself fails, the solution comes back with
NaN/Inf entries, or a transient step diverges beyond the configured
residual tolerance.  Raw ``LinAlgError``/``RuntimeError`` exceptions
from SciPy tell a caller nothing about *which* solve failed or what the
runtime already tried; the taxonomy here carries a
:class:`SolverDiagnostics` record so fault-campaign drivers and sweep
workers can log, classify and retry without string-matching messages.

The hierarchy::

    ThermalSolveError
    ├── ThermalInputError       (also a ValueError: bad powers/flows/dt)
    ├── FactorizationError      (sparse LU construction failed)
    ├── NonFiniteFieldError     (solution contains NaN/Inf)
    ├── TransientDivergenceError (dt-halving backoff exhausted)
    ├── IterativeConvergenceError (Krylov solve failed to converge)
    └── CoolingDryoutError      (two-phase cooling marched into dry-out)

The Krylov path (see :mod:`repro.thermal.krylov`) reports through the
same records: :class:`SolverDiagnostics` carries the method that
produced the solution, the iteration count, and whether the solve had
to fall back to the direct factorisation; :class:`SolverStats`
accumulates those per model/stepper for observability
(``repro bench-thermal`` prints them).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..obs.metrics import Counter, get_registry


@dataclass(frozen=True)
class SolverDiagnostics:
    """Health record of one steady solve or transient step.

    Attributes
    ----------
    kind:
        ``"steady"`` or ``"transient"``.
    residual_norm:
        Relative residual ``||A x - b|| / ||b||`` when it was computed,
        else ``None`` (transient steps skip it unless a residual
        tolerance is configured — it costs one extra spmv per step).
    finite:
        Whether every entry of the solution is finite.
    condition_estimate:
        Cheap order-of-magnitude condition estimate of the factorised
        matrix, ``max|diag(U)| / min|diag(U)|`` from the LU factor.
    dt:
        Requested step length [s] (transient only).
    dt_effective:
        Smallest substep actually taken after backoff (transient only).
    retries:
        Number of dt-halving retries consumed by the step.
    factor_evictions:
        Poisoned LU factors evicted while handling this solve.
    method:
        ``"direct"`` (sparse LU), ``"bicgstab"`` (ILU-preconditioned
        Krylov) or ``"bicgstab+amg"`` (AMG-preconditioned Krylov); the
        method that produced the accepted solution.
    iterations:
        Krylov iteration count when an iterative path ran, else
        ``None``.
    fallback_to_direct:
        Whether the iterative solve failed to converge and the direct
        factorisation produced the accepted solution instead.
    fallback_to_iterative:
        Whether the AMG tier failed (broken hierarchy setup or
        non-convergence) and the solve dropped to the ILU tier — the
        first hop of the amg -> iterative -> direct chain.
    """

    kind: str
    residual_norm: Optional[float] = None
    finite: bool = True
    condition_estimate: Optional[float] = None
    dt: Optional[float] = None
    dt_effective: Optional[float] = None
    retries: int = 0
    factor_evictions: int = 0
    method: str = "direct"
    iterations: Optional[int] = None
    fallback_to_direct: bool = False
    fallback_to_iterative: bool = False

    def healthy(self, residual_tolerance: float = 1e-6) -> bool:
        """True when the solve needed no intervention and looks sane."""
        if not self.finite or self.retries or self.factor_evictions:
            return False
        if self.fallback_to_direct or self.fallback_to_iterative:
            return False
        if self.residual_norm is not None:
            return self.residual_norm <= residual_tolerance
        return True


@dataclass(frozen=True)
class SolverGuard:
    """Configuration of the numerical guards around solves.

    Attributes
    ----------
    check_finite:
        Reject NaN/Inf solutions (one cheap ``isfinite`` scan per
        solve).  Disabling it removes every per-step guard.
    residual_tolerance:
        When set, compute the relative residual of each solve and treat
        anything above the tolerance as a divergence.  Costs one extra
        spmv (plus a sparse add for flow-dependent matrices) per solve,
        so it is opt-in; the closed-loop benchmarks run without it.
    max_dt_halvings:
        Bound on the transient dt-halving backoff: a failing step is
        split into ``2^k`` substeps for ``k = 1..max_dt_halvings``
        before :class:`TransientDivergenceError` is raised.
    """

    check_finite: bool = True
    residual_tolerance: Optional[float] = None
    max_dt_halvings: int = 6

    def __post_init__(self) -> None:
        if self.max_dt_halvings < 0:
            raise ValueError("max_dt_halvings must be non-negative")
        if self.residual_tolerance is not None and not (
            self.residual_tolerance > 0.0
        ):
            raise ValueError("residual_tolerance must be positive")


class SolverStats:
    """Running counters over the solves of one model or stepper.

    Where :class:`SolverDiagnostics` is the health record of a *single*
    solve, this accumulates across a whole run so sweep drivers and the
    benchmark harness can report how the tiered backend actually
    behaved: how often each path ran, how many Krylov iterations were
    spent, and how often the iterative path had to hand a solve back to
    the direct factorisation.

    Backed by :class:`repro.obs.metrics.Counter` instances: the four
    per-instance counters keep the historical per-model/per-stepper
    attribute semantics (``stats.direct_solves`` etc. read through to
    them), while every ``record`` also folds into the process-global
    metrics registry under ``solver.*`` so a whole run's solver
    behaviour rolls up into one place regardless of how many models and
    steppers it created.
    """

    _GLOBAL_NAMES = (
        "solver.direct_solves",
        "solver.iterative_solves",
        "solver.amg_solves",
        "solver.krylov_iterations",
        "solver.fallbacks_to_direct",
        "solver.fallbacks_to_iterative",
    )

    def __init__(self) -> None:
        self._direct = Counter("direct_solves")
        self._iterative = Counter("iterative_solves")
        self._amg = Counter("amg_solves")
        self._krylov = Counter("krylov_iterations")
        self._fallbacks = Counter("fallbacks_to_direct")
        self._fallbacks_iterative = Counter("fallbacks_to_iterative")
        registry = get_registry()
        (
            self._g_direct,
            self._g_iterative,
            self._g_amg,
            self._g_krylov,
            self._g_fallbacks,
            self._g_fallbacks_iterative,
        ) = (registry.counter(name) for name in self._GLOBAL_NAMES)

    @property
    def direct_solves(self) -> int:
        return self._direct.value

    @property
    def iterative_solves(self) -> int:
        return self._iterative.value

    @property
    def amg_solves(self) -> int:
        return self._amg.value

    @property
    def krylov_iterations(self) -> int:
        return self._krylov.value

    @property
    def fallbacks_to_direct(self) -> int:
        return self._fallbacks.value

    @property
    def fallbacks_to_iterative(self) -> int:
        return self._fallbacks_iterative.value

    def record(self, diagnostics: "SolverDiagnostics") -> None:
        """Fold one solve's diagnostics into the counters."""
        if diagnostics.iterations is not None:
            self._krylov.inc(diagnostics.iterations)
            self._g_krylov.inc(diagnostics.iterations)
        if diagnostics.fallback_to_iterative:
            self._fallbacks_iterative.inc()
            self._g_fallbacks_iterative.inc()
        if diagnostics.fallback_to_direct:
            self._fallbacks.inc()
            self._g_fallbacks.inc()
            self._direct.inc()
            self._g_direct.inc()
        elif diagnostics.method == "direct":
            self._direct.inc()
            self._g_direct.inc()
        elif diagnostics.method == "bicgstab+amg":
            self._amg.inc()
            self._g_amg.inc()
        else:
            self._iterative.inc()
            self._g_iterative.inc()

    def as_dict(self) -> dict:
        """Plain-dict view for JSON reports."""
        return {
            "direct_solves": self.direct_solves,
            "iterative_solves": self.iterative_solves,
            "amg_solves": self.amg_solves,
            "krylov_iterations": self.krylov_iterations,
            "fallbacks_to_direct": self.fallbacks_to_direct,
            "fallbacks_to_iterative": self.fallbacks_to_iterative,
        }

    def __repr__(self) -> str:
        pairs = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"SolverStats({pairs})"


class ThermalSolveError(RuntimeError):
    """Base of every failure raised by the thermal solve path.

    Attributes
    ----------
    diagnostics:
        The :class:`SolverDiagnostics` observed when the failure was
        detected, when one is available.
    """

    def __init__(
        self,
        message: str,
        diagnostics: Optional[SolverDiagnostics] = None,
    ) -> None:
        super().__init__(message)
        self.diagnostics = diagnostics


class ThermalInputError(ThermalSolveError, ValueError):
    """Invalid model input: NaN/negative powers, bad flow rates or dt.

    Also a ``ValueError`` so pre-taxonomy callers that caught
    ``ValueError`` on validation failures keep working.
    """


class FactorizationError(ThermalSolveError):
    """Sparse LU factorisation of the system matrix failed."""


class NonFiniteFieldError(ThermalSolveError):
    """A solve produced NaN/Inf temperatures."""


class TransientDivergenceError(ThermalSolveError):
    """A transient step kept diverging after the bounded dt backoff."""


class IterativeConvergenceError(ThermalSolveError):
    """A Krylov solve did not converge to the requested tolerance.

    Raised by :class:`repro.thermal.krylov.KrylovSolver` when BiCGSTAB
    exhausts its iteration budget or breaks down.  The tiered solve
    paths catch it and fall back to the direct factorisation; it only
    propagates to callers that request the iterative backend
    explicitly with the fallback disabled.
    """


class CoolingDryoutError(ThermalSolveError):
    """A two-phase cooling backend marched into dry-out (quality → 1).

    Wraps :class:`repro.twophase.evaporator.DryoutError` into the
    solver-error taxonomy: Section III's benefits hold only "as long as
    dry-out ... is avoided", and a flow command that starves an
    evaporating cavity is an operating-point failure, not a crash.
    Fault campaigns classify it like any other solve failure and report
    dry-out margin deltas instead of tracebacks.

    Attributes
    ----------
    cavity:
        Name of the cavity that dried out, when known.
    """

    def __init__(
        self,
        message: str,
        cavity: Optional[str] = None,
        diagnostics: Optional[SolverDiagnostics] = None,
    ) -> None:
        super().__init__(message, diagnostics)
        self.cavity = cavity


def condition_estimate_from_factor(factor: object) -> Optional[float]:
    """Cheap condition estimate from a SuperLU factor's U diagonal.

    ``max|diag(U)| / min|diag(U)|`` bounds nothing rigorously but flags
    near-singular systems (estimate → inf) at negligible cost; a proper
    1-norm estimate would need several extra triangular solves.
    """
    try:
        diag = np.abs(factor.U.diagonal())
    except AttributeError:
        return None
    if diag.size == 0:
        return None
    smallest = diag.min()
    if smallest == 0.0 or not np.isfinite(smallest):
        return float("inf")
    return float(diag.max() / smallest)


def relative_residual(
    matrix, solution: np.ndarray, rhs: np.ndarray
) -> float:
    """Relative residual ``||A x - b|| / ||b||`` (2-norm)."""
    residual = matrix @ solution - rhs
    scale = float(np.linalg.norm(rhs))
    if scale == 0.0:
        return float(np.linalg.norm(residual))
    return float(np.linalg.norm(residual) / scale)


def all_finite(values: np.ndarray) -> bool:
    """Whether every entry is finite: a sum is finite only if every term
    is, so only an overflowing sum needs the element-wise check."""
    return math.isfinite(values.sum()) or bool(np.isfinite(values).all())


def validate_finite_array(
    values: np.ndarray, name: str, non_negative: bool = False
) -> None:
    """Reject NaN/Inf (and optionally negative) entries with context."""
    values = np.asarray(values)
    if not all_finite(values):
        bad = int(np.count_nonzero(~np.isfinite(values)))
        raise ThermalInputError(
            f"{name} contains {bad} non-finite entries; "
            "check the upstream power/flow computation"
        )
    if non_negative and values.size and float(values.min()) < 0.0:
        raise ThermalInputError(
            f"{name} contains negative entries (min {float(values.min()):g})"
        )


def validate_positive_scalar(value: float, name: str) -> float:
    """Reject non-finite or non-positive scalars with context."""
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise ThermalInputError(
            f"{name} must be a positive finite number, got {value!r}"
        )
    return value
