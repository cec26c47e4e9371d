"""Transient integration of the compact thermal model.

Backward Euler:

``(C/dt + A(f)) T_{n+1} = (C/dt) T_n + P + b(f)``

The system depends only on ``(flow signature, dt)``.  The run-time
policies quantise the flow rate to a handful of settings, so the
model's LRU caches of solve operators (see :mod:`repro.thermal.ladder`)
make every direct step after the first a pair of triangular solves —
this is what makes minutes-long closed-loop simulations with 100 ms
control periods cheap.  The caches live on the model, so every run on
one model shares them, and each entry holds the boundary vector
``b(f)`` beside its operator: a cached step performs one spmv (power
injection), one triangular solve pair, one vector multiply and two
vector adds.

Every step walks the model's transient chain, whose direct rung
refactorises once on a non-finite or out-of-tolerance solution.  A
step whose walk still fails is re-attempted as ``2^k`` backward-Euler
substeps at ``dt / 2^k`` with bounded ``k`` (the model's
:class:`~repro.thermal.diagnostics.SolverGuard`) before
:class:`TransientDivergenceError` is raised.  The health record of the
last step is kept in ``last_diagnostics``.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..obs.metrics import get_registry
from ..obs.trace import get_tracer
from . import ladder
from .diagnostics import (
    SolverDiagnostics,
    SolverStats,
    TransientDivergenceError,
    validate_finite_array,
    validate_positive_scalar,
)
from .field import TemperatureField
from .model import BlockRef, CompactThermalModel


class TransientStepper:
    """Advances a thermal model state with backward-Euler steps.

    Parameters
    ----------
    model:
        The assembled compact thermal model, whose backend, Krylov
        options, guard and operator caches every step uses.
    dt:
        Time-step length [s]; typically the 100 ms sensor period.
    initial:
        Initial temperature field; the paper initialises simulations with
        steady-state values, so callers usually pass
        ``model.steady_state(...)``.

    Notes
    -----
    On the iterative and amg backends a step runs ILU-preconditioned
    BiCGSTAB warm-started from the previous state — the dominant
    ``C/dt`` diagonal makes these systems converge in a handful of
    iterations — and hands over to the guarded direct LU when it
    fails.  Cached boundary vectors are taken at the model's
    ``inlet_temperature``/``ambient``, which no run changes.
    """

    def __init__(
        self,
        model: CompactThermalModel,
        dt: float,
        initial: TemperatureField,
    ) -> None:
        dt = validate_positive_scalar(dt, "dt")
        self.model = model
        self.dt = float(dt)
        self.state = initial.copy()
        self.time = initial.time
        self.last_diagnostics: Optional[SolverDiagnostics] = None
        self.stats = SolverStats()
        self._c_steps = get_registry().counter("thermal.transient_steps")
        self._c_over_dt = model.capacitance / self.dt
        # The health record of every step that the first direct solve
        # settles with no residual check: frozen, so one instance
        # serves them all.
        self._direct_step = SolverDiagnostics(
            kind="transient", dt=self.dt, dt_effective=self.dt
        )

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

    def _walk(
        self, values: np.ndarray, power: np.ndarray, dt: float
    ) -> Tuple[Optional[np.ndarray], Optional[SolverDiagnostics]]:
        """One backward-Euler solve from ``values`` down the ladder."""
        model = self.model
        load = np.multiply(
            self._c_over_dt if dt == self.dt else model.capacitance / dt, values
        )
        load += power
        key = (model.flow_signature(), dt)
        return ladder.solve(model, "transient", key, load, x0=values)

    def step_with_power_vector(self, power: np.ndarray) -> TemperatureField:
        """Advance one guarded time step with a pre-built power vector."""
        tracer = get_tracer()
        with tracer.span("thermal.transient_step") as span:
            state = self._guarded_step(power)
            self._c_steps.inc()
            if tracer.has_sinks:
                diagnostics = self.last_diagnostics
                span.set(
                    method=diagnostics.method,
                    retries=diagnostics.retries,
                    t=self.time,
                )
            return state

    def _guarded_step(self, power: np.ndarray) -> TemperatureField:
        """The guarded solve behind :meth:`step_with_power_vector`."""
        validate_finite_array(power, "nodal power vector")
        values, walked = self._walk(self.state.values, power, self.dt)
        if walked is None:
            # The common step: one direct solve passed every guard.
            self.time += self.dt
            self.state = TemperatureField(self.model.grid, values, self.time)
            self.last_diagnostics = self._direct_step
            self.stats.record(self._direct_step)
            return self.state
        walks: List[SolverDiagnostics] = [walked]
        retries = 0
        dt_effective = self.dt
        halvings = self.model.guard.max_dt_halvings
        if values is None:
            # Bounded dt-halving backoff: 2^k substeps at dt / 2^k.
            for retries in range(1, halvings + 1):
                dt_effective = self.dt / (2.0**retries)
                current = self.state.values
                for _ in range(2**retries):
                    current, walked = self._walk(current, power, dt_effective)
                    walks.append(walked or self._direct_step)
                    if current is None:
                        break
                if current is not None:
                    values = current
                    break
        counted = [walk.iterations for walk in walks if walk.iterations is not None]
        diagnostics = dataclasses.replace(
            walks[-1],
            dt=self.dt,
            dt_effective=dt_effective,
            retries=retries,
            factor_evictions=sum(walk.factor_evictions for walk in walks),
            iterations=sum(counted) if counted else None,
            fallback_to_direct=any(walk.fallback_to_direct for walk in walks),
        )
        self.last_diagnostics = diagnostics
        if values is None:
            raise TransientDivergenceError(
                f"transient step at t={self.time:.3f}s diverged and the "
                f"dt backoff was exhausted after {halvings} halvings",
                diagnostics,
            )
        self.time += self.dt
        self.state = TemperatureField(self.model.grid, values, self.time)
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
