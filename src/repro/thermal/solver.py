"""Transient integration of the compact thermal model.

Backward Euler with sparse LU factors:

``(C/dt + A(f)) T_{n+1} = (C/dt) T_n + P + b(f)``

The factorisation depends only on ``(flow signature, dt)``.  The
run-time policies quantise the flow rate to a handful of settings, so an
LRU cache of LU factors makes every step after the first a pair of
triangular solves — this is what makes minutes-long closed-loop
simulations with 100 ms control periods cheap.  The cache lives on the
model (:meth:`CompactThermalModel.transient_factor`), next to its steady
factors and the iterative path's ILU operators
(:meth:`CompactThermalModel.transient_krylov`), so every run on one
model shares them.  The boundary vector
``b(f)`` depends on the same signature and is cached alongside the
factor, so a cached step performs exactly one spmv (power injection),
one triangular solve pair, and one vector add.

Every step is guarded (see :class:`~repro.thermal.diagnostics.SolverGuard`):
non-finite solutions evict the offending LU factor — a retry therefore
refactorises instead of reusing a poisoned factor — and the step is
re-attempted as ``2^k`` backward-Euler substeps at ``dt / 2^k`` with
bounded ``k`` before :class:`TransientDivergenceError` is raised.  The
health record of the last step is kept in ``last_diagnostics``.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from .diagnostics import (
    FactorizationError,
    IterativeConvergenceError,
    SolverDiagnostics,
    SolverGuard,
    SolverStats,
    TransientDivergenceError,
    all_finite,
    condition_estimate_from_factor,
    relative_residual,
    validate_finite_array,
    validate_positive_scalar,
)
from ..obs.metrics import get_registry
from ..obs.trace import get_tracer
from .field import TemperatureField
from .model import BlockRef, CompactThermalModel, FactorEntry

AttemptOutcome = Tuple[
    np.ndarray, bool, Optional[float], str, Optional[int], bool
]
"""One unguarded solve attempt:
``(solution, ok, residual, method, iterations, fell_back)``."""


class TransientStepper:
    """Advances a thermal model state with backward-Euler steps.

    Parameters
    ----------
    model:
        The assembled compact thermal model.
    dt:
        Time-step length [s]; typically the 100 ms sensor period.
    initial:
        Initial temperature field; the paper initialises simulations with
        steady-state values, so callers usually pass
        ``model.steady_state(...)``.
    guard:
        Numerical-guard configuration; defaults to the model's.

    Notes
    -----
    The stepper runs the model's backend.  The ``"amg"`` steady tier
    shares the iterative transient path (the ``C/dt`` shift already
    makes ILU-BiCGSTAB converge in a few iterations, so a per-``(flow,
    dt)`` hierarchy would be wasted setup).  The iterative path solves
    ``(C/dt + A(f))`` with ILU-preconditioned BiCGSTAB warm-started from
    the previous state — the dominant-diagonal ``C/dt`` makes these
    systems converge in a handful of iterations — and falls back to the
    guarded direct LU on non-convergence.  The LU factors and ILU
    operators live in the model's transient caches, which every stepper
    of the model shares.  Cached boundary vectors are taken at the
    model's ``inlet_temperature``/``ambient``, which no run changes.
    """

    def __init__(
        self,
        model: CompactThermalModel,
        dt: float,
        initial: TemperatureField,
        guard: Optional[SolverGuard] = None,
    ) -> None:
        dt = validate_positive_scalar(dt, "dt")
        self.model = model
        self.dt = float(dt)
        self.guard = guard if guard is not None else model.guard
        self.state = initial.copy()
        self.time = initial.time
        self.last_diagnostics: Optional[SolverDiagnostics] = None
        self.stats = SolverStats()
        self._backend = model.steady_backend()
        self._c_steps = get_registry().counter("thermal.transient_steps")
        self._c_over_dt = model.capacitance / self.dt
        # The health record of every step that the first direct solve
        # settles with no residual check: frozen, so one instance
        # serves them all.
        self._direct_step = SolverDiagnostics(
            kind="transient", dt=self.dt, dt_effective=self.dt
        )

    def _c_over(self, dt: float) -> np.ndarray:
        if dt == self.dt:
            return self._c_over_dt
        return self.model.capacitance / dt

    def _factor(self, dt: Optional[float] = None) -> FactorEntry:
        return self.model.transient_factor(self.dt if dt is None else dt)

    @property
    def backend(self) -> str:
        """The resolved backend (``"direct"``/``"iterative"``/``"amg"``)."""
        return self._backend

    def evict_factor(self, dt: Optional[float] = None) -> bool:
        """Drop the cached factor of the current flow state at ``dt``.

        Guarded steps call this when a factor yields non-finite or
        out-of-tolerance solutions, so the retry refactorises instead of
        reusing the poisoned factor.  Returns whether an entry existed
        (in either the direct or the iterative cache).
        """
        dt = self.dt if dt is None else dt
        dropped_lu = self.model.evict_transient_factor(dt)
        dropped_ilu = self.model.evict_transient_krylov(dt)
        return dropped_lu or dropped_ilu

    def step(self, block_powers: Dict[BlockRef, float]) -> TemperatureField:
        """Advance one time step under the given block powers.

        Returns the new state (also retained as ``self.state``).
        """
        return self.step_packed(self.model.pack_powers(block_powers))

    def step_packed(self, packed_powers: np.ndarray) -> TemperatureField:
        """Advance one step from a packed per-block power array.

        The fast path for callers that already hold powers in the
        model's canonical :meth:`CompactThermalModel.block_order`: the
        nodal vector is one spmv on the precomputed injection operator.
        """
        return self.step_with_power_vector(
            self.model.power_vector_packed(packed_powers)
        )

    def _attempt(
        self, values: np.ndarray, power: np.ndarray, dt: float
    ) -> AttemptOutcome:
        """One unguarded backward-Euler solve; reports solution health.

        On the iterative backend this tries the warm-started Krylov
        solve first and hands the step to the direct factorisation
        when it does not converge (``fell_back=True`` in the outcome);
        the guarded retry/backoff logic above never needs to know which
        backend produced the solution.
        """
        iterations: Optional[int] = None
        fell_back = False
        # Dynamic two-phase anchors contribute a pure rhs delta: the
        # (C/dt + A) factor caches stay valid while the saturation
        # field moves, and legacy paths never take the branch.
        cooling = self.model.cooling_rhs()
        if self._backend in ("iterative", "amg"):
            # The C/dt shift makes transient systems strongly
            # diagonally dominant: ILU-BiCGSTAB converges in a handful
            # of iterations, so an AMG hierarchy per (flow, dt) key
            # would cost more setup than it could save.  The amg
            # backend therefore shares the iterative transient tier.
            try:
                solver, boundary = self.model.transient_krylov(dt)
                rhs = self._c_over(dt) * values + power + boundary
                if cooling is not None:
                    rhs = rhs + cooling
                before = solver.iterations_total
                solution, iterations = solver.solve(rhs, x0=values)
            except FactorizationError:
                self.model.evict_transient_krylov(dt)
                fell_back = True
            except IterativeConvergenceError:
                # The failed rung's own work counts, as in the steady
                # chain's Krylov rung.
                iterations = solver.iterations_total - before
                self.model.evict_transient_krylov(dt)
                fell_back = True
            else:
                residual: Optional[float] = None
                ok = True
                if self.guard.residual_tolerance is not None:
                    residual = relative_residual(
                        solver.matrix, solution, rhs
                    )
                    if residual > self.guard.residual_tolerance:
                        ok = False
                if ok:
                    return (
                        solution, True, residual, "bicgstab", iterations,
                        False,
                    )
                self.model.evict_transient_krylov(dt)
                fell_back = True
        factor, boundary, matrix = self._factor(dt)
        rhs = np.multiply(self._c_over(dt), values)
        rhs += power
        rhs += boundary
        if cooling is not None:
            rhs += cooling
        solution = factor.solve(rhs)
        residual = None
        ok = True
        if self.guard.check_finite and not all_finite(solution):
            ok = False
        if ok and self.guard.residual_tolerance is not None:
            residual = relative_residual(matrix, solution, rhs)
            if residual > self.guard.residual_tolerance:
                ok = False
        return solution, ok, residual, "direct", iterations, fell_back

    def step_with_power_vector(self, power: np.ndarray) -> TemperatureField:
        """Advance one guarded time step with a pre-built power vector."""
        tracer = get_tracer()
        with tracer.span("thermal.transient_step") as span:
            state = self._guarded_step(power)
            self._c_steps.inc()
            if tracer.has_sinks:
                diagnostics = self.last_diagnostics
                if diagnostics is not None:
                    span.set(
                        method=diagnostics.method,
                        retries=diagnostics.retries,
                        t=self.time,
                    )
                    if diagnostics.fallback_to_direct:
                        tracer.event(
                            "krylov.fallback",
                            kind="transient",
                            iterations=diagnostics.iterations,
                        )
            return state

    def _guarded_step(self, power: np.ndarray) -> TemperatureField:
        """The guarded solve behind :meth:`step_with_power_vector`."""
        if self.guard.check_finite:
            validate_finite_array(power, "nodal power vector")
        values, ok, residual, method, iterations, fell_back = self._attempt(
            self.state.values, power, self.dt
        )
        if ok and method == "direct" and not fell_back and residual is None:
            # The common step: one direct solve passed every guard.
            self.time += self.dt
            self.state = TemperatureField(self.model.grid, values, self.time)
            self.last_diagnostics = self._direct_step
            self.stats.record(self._direct_step)
            return self.state
        iteration_total = iterations or 0
        saw_iterative = iterations is not None
        evictions = 0
        retries = 0
        dt_effective = self.dt
        if not ok:
            # The factor may be poisoned (e.g. cached before a failed
            # solve): evict and retry once with a fresh factorisation.
            if self.evict_factor(self.dt):
                evictions += 1
            values, ok, residual, method, iterations, sub_fell = (
                self._attempt(self.state.values, power, self.dt)
            )
            iteration_total += iterations or 0
            saw_iterative = saw_iterative or iterations is not None
            fell_back = fell_back or sub_fell
        if not ok:
            # Bounded dt-halving backoff: 2^k substeps at dt / 2^k.
            for halvings in range(1, self.guard.max_dt_halvings + 1):
                sub_dt = self.dt / (2.0 ** halvings)
                current = self.state.values
                diverged = False
                for _ in range(2 ** halvings):
                    current, sub_ok, residual, method, iterations, sub_fell = (
                        self._attempt(current, power, sub_dt)
                    )
                    iteration_total += iterations or 0
                    saw_iterative = saw_iterative or iterations is not None
                    fell_back = fell_back or sub_fell
                    if not sub_ok:
                        if self.evict_factor(sub_dt):
                            evictions += 1
                        diverged = True
                        break
                if not diverged:
                    values = current
                    ok = True
                    retries = halvings
                    dt_effective = sub_dt
                    break
        if not ok:
            factor, _, _ = self._factor(self.dt)
            diagnostics = SolverDiagnostics(
                kind="transient",
                residual_norm=residual,
                finite=bool(np.all(np.isfinite(values))),
                condition_estimate=condition_estimate_from_factor(factor),
                dt=self.dt,
                dt_effective=self.dt / (2.0 ** self.guard.max_dt_halvings),
                retries=self.guard.max_dt_halvings,
                factor_evictions=evictions,
                method=method,
                iterations=iteration_total if saw_iterative else None,
                fallback_to_direct=fell_back,
            )
            self.last_diagnostics = diagnostics
            raise TransientDivergenceError(
                f"transient step at t={self.time:.3f}s diverged and the "
                f"dt backoff was exhausted after "
                f"{self.guard.max_dt_halvings} halvings",
                diagnostics,
            )
        self.time += self.dt
        self.state = TemperatureField(self.model.grid, values, self.time)
        if method == "direct" and (
            retries or evictions or self.guard.residual_tolerance is not None
        ):
            # Only when a direct factor produced the solution: computing
            # the estimate on the iterative path would force exactly the
            # LU factorisation the backend exists to avoid.
            condition = condition_estimate_from_factor(
                self._factor(dt_effective)[0]
            )
        else:
            condition = None
        diagnostics = SolverDiagnostics(
            kind="transient",
            residual_norm=residual,
            finite=True,
            condition_estimate=condition,
            dt=self.dt,
            dt_effective=dt_effective,
            retries=retries,
            factor_evictions=evictions,
            method=method,
            iterations=iteration_total if saw_iterative else None,
            fallback_to_direct=fell_back,
        )
        self.last_diagnostics = diagnostics
        self.stats.record(diagnostics)
        return self.state

    def run(
        self,
        block_powers: Dict[BlockRef, float],
        duration: float,
    ) -> TemperatureField:
        """Advance multiple steps under constant power (convenience)."""
        if duration < 0.0:
            raise ValueError("duration must be non-negative")
        steps = int(round(duration / self.dt))
        power = self.model.power_vector(block_powers)
        for _ in range(steps):
            self.step_with_power_vector(power)
        return self.state
