"""Reusable sweep engine for design-space and policy studies.

The layers, from cheapest to heaviest:

* :class:`SteadySweep` — batched steady-state solves over one thermal
  model.  Cases are grouped by flow state so each distinct ``A(f)`` is
  factorised once (through the model's steady-factor cache) and solved
  with one multi-right-hand-side triangular solve.  SuperLU processes
  the RHS columns independently, so the fields are bitwise identical
  to point-by-point :meth:`CompactThermalModel.steady_state` calls.
* :class:`TransientSweep` — batched backward-Euler stepping of many
  power traces against one thermal model.  All traces share the flow
  state and dt, so every step is one cached factorisation lookup, one
  batched power injection and one multi-right-hand-side triangular
  solve; the trajectories are bitwise identical to per-trace
  :meth:`~repro.thermal.solver.TransientStepper.step_packed` loops.
* One job engine for independent work items:
  :func:`resilient_fan_out` runs them serially or each in a worker
  process of its own, with retries, per-job timeouts and crash
  isolation; :func:`fan_out` is its strict form, which raises on the
  first failure.  Its workers, deadlines and backoffs are the
  :class:`repro.workers.AttemptTable` the job service drives too; the
  engine adds serial mode, checkpoints, strict mode and model sharing.
* :class:`SimulationJob` / :func:`run_simulations` /
  :func:`run_simulations_resilient` — closed-loop
  :class:`~repro.core.simulator.SystemSimulator` runs as jobs of that
  engine.  Every (stack, policy, workload) combination is
  independent, which is what makes the benchmark grids embarrassingly
  parallel.  A job is either a bundle of live objects (legacy) or a
  declarative :class:`~repro.scenario.Scenario`; scenario-backed jobs
  can be served from the hash-keyed on-disk result cache
  (``cache_dir=...``) so repeated sweep points are never recomputed.

A worker process costs a fork per job, so processes only win when each
job runs for seconds (closed-loop simulations, fine-grid steady maps)
— the benchmark harness keeps them opt-in via ``REPRO_BENCH_PROCESSES``.
Under the fork start method workers inherit the job list, so nothing
is pickled on the way in, and a simulation sweep assembles each
thermal model that two or more jobs need once, in the parent, for
every worker to share copy-on-write.
"""

from __future__ import annotations

import multiprocessing
import pickle
import time as _time
from collections import Counter, deque
from dataclasses import dataclass, field
from functools import partial
from itertools import islice
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

import numpy as np

from .. import constants
from ..core.policies import Policy
from ..core.simulator import (
    DEFAULT_NX,
    DEFAULT_NY,
    SimulationResult,
    SystemSimulator,
)
from ..geometry.stack import StackDesign
from ..obs import capture_telemetry, is_obs_payload
from ..obs.metrics import get_registry
from ..obs.trace import get_tracer
from ..scenario.cache import ResultCache
from ..scenario.runner import Runner, build_model
from ..scenario.spec import Scenario
from ..thermal.diagnostics import (
    SolverGuard,
    validate_finite_array,
    validate_positive_scalar,
)
from ..thermal.field import TemperatureField
from ..thermal.model import BlockRef, CompactThermalModel
from ..thermal.solver import TransientStepper
from ..workers import AttemptTable, RetryPolicy, error_report
from ..workload.traces import WorkloadTrace

T = TypeVar("T")
R = TypeVar("R")


@dataclass(frozen=True)
class SteadyCase:
    """One steady-state solve: block powers at an optional flow override.

    ``flow_ml_min=None`` solves at the model's stored (possibly
    per-cavity) flow state, exactly like
    :meth:`CompactThermalModel.steady_state`.
    """

    block_powers: Mapping[BlockRef, float]
    flow_ml_min: Optional[float] = None


class SteadySweep:
    """Batched steady solves against one :class:`CompactThermalModel`.

    Parameters
    ----------
    model:
        The model to sweep.  Its steady-factor cache is shared, so
        interleaving sweeps with individual ``steady_state`` calls
        never refactorises needlessly.
    """

    def __init__(self, model: CompactThermalModel) -> None:
        self.model = model

    def solve(self, cases: Sequence[SteadyCase]) -> List[TemperatureField]:
        """Solve all cases, returned in input order.

        Cases are grouped by flow override; each group is one
        factorisation (cached) plus one multi-RHS solve.
        """
        groups: Dict[object, List[int]] = {}
        for index, case in enumerate(cases):
            key = (
                None
                if case.flow_ml_min is None
                else round(float(case.flow_ml_min), 6)
            )
            groups.setdefault(key, []).append(index)

        results: List[Optional[TemperatureField]] = [None] * len(cases)
        for key, indices in groups.items():
            flow = None if key is None else cases[indices[0]].flow_ml_min
            factor = self.model.steady_factor(flow)
            boundary = self.model.boundary_rhs(flow)
            rhs = np.empty((self.model.grid.size, len(indices)))
            for column, index in enumerate(indices):
                rhs[:, column] = (
                    self.model.power_vector(dict(cases[index].block_powers))
                    + boundary
                )
            solution = factor.solve(rhs)
            for column, index in enumerate(indices):
                results[index] = TemperatureField(
                    self.model.grid, np.ascontiguousarray(solution[:, column])
                )
        assert all(field_ is not None for field_ in results)
        return results  # type: ignore[return-value]

    def peak_temperatures(self, cases: Sequence[SteadyCase]) -> np.ndarray:
        """Stack peak temperature per case [K] (convenience)."""
        return np.array([field_.max() for field_ in self.solve(cases)])


@dataclass
class TransientSweepResult:
    """Outcome of one batched transient sweep.

    Attributes
    ----------
    fields:
        Final temperature field per trace, in input order.
    peak_k:
        ``(steps, traces)`` stack peak temperature per step [K].
    steps:
        Number of backward-Euler steps taken.
    """

    fields: List[TemperatureField]
    peak_k: np.ndarray
    steps: int


class TransientSweep:
    """Batched transient stepping of many power traces on one model.

    Workload studies repeatedly integrate the *same* stack under many
    power schedules — different benchmarks, phase shifts, or
    what-if scalings.  Stepping each trace through its own
    :class:`~repro.thermal.solver.TransientStepper` repeats the
    factorisation lookup, the power injection spmv and the pair of
    triangular solves per trace per step.  This driver keeps all trace
    states in one ``(nodes, traces)`` matrix so every step costs one
    cached factorisation lookup, one batched injection
    (``operator @ powers.T``) and one multi-right-hand-side
    ``factor.solve``.

    SuperLU processes right-hand-side columns independently and the
    CSR-times-dense product accumulates each column exactly like the
    single-vector spmv, so the trajectories are **bitwise identical**
    to per-trace sequential stepping (asserted by the test suite).

    All traces share the model's current flow state and the step
    length — that is what makes one factorisation serve every column.
    Callers that sweep flow as well should group traces by flow setting
    (compare :class:`SteadySweep`).

    Guard behaviour: packed powers are validated up front; if a batched
    step produces non-finite entries, the shared factor is evicted and
    the offending columns are re-stepped individually through a guarded
    :class:`~repro.thermal.solver.TransientStepper` (eviction, retry,
    dt-halving backoff), so a single diverging trace cannot poison its
    siblings.

    Parameters
    ----------
    model:
        The assembled thermal model (shared by every trace).
    dt:
        Backward-Euler step length [s].
    guard:
        Numerical-guard configuration; defaults to the model's.
    max_cached_factors:
        LRU bound of the underlying factor cache.
    """

    def __init__(
        self,
        model: CompactThermalModel,
        dt: float,
        *,
        guard: Optional[SolverGuard] = None,
        max_cached_factors: int = 16,
    ) -> None:
        self.model = model
        self.dt = validate_positive_scalar(dt, "dt")
        self.guard = guard if guard is not None else model.guard
        # The internal stepper exists for its factor cache: it builds
        # (C/dt + A(f)) with exactly the same SPLU options and cached
        # boundary vector as sequential stepping, which is what makes
        # the bitwise-identity guarantee hold.
        self._stepper = TransientStepper(
            model,
            self.dt,
            TemperatureField(model.grid, np.zeros(model.grid.size)),
            max_cached_factors=max_cached_factors,
            guard=self.guard,
            solver="direct",
        )

    def cache_info(self):
        """Factor-cache statistics of the shared stepper."""
        return self._stepper.cache_info()

    def _initial_states(
        self,
        initial,
        n_traces: int,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Build the ``(nodes, traces)`` state matrix and start times."""
        if isinstance(initial, TemperatureField):
            fields = [initial] * n_traces
        else:
            fields = list(initial)
            if len(fields) != n_traces:
                raise ValueError(
                    f"{len(fields)} initial fields for {n_traces} traces"
                )
        states = np.empty((self.model.grid.size, n_traces))
        times = np.empty(n_traces)
        for column, field_ in enumerate(fields):
            if field_.values.shape != (self.model.grid.size,):
                raise ValueError("initial field does not match the grid")
            states[:, column] = field_.values
            times[column] = field_.time
        return states, times

    def _recover_step(
        self,
        states: np.ndarray,
        nodal: np.ndarray,
        solution: np.ndarray,
        times: np.ndarray,
    ) -> np.ndarray:
        """Re-step non-finite columns through guarded sequential solves.

        The shared factor may be poisoned: evict it so both the
        per-column retries and the next batched step refactorise.
        Raises :class:`~repro.thermal.diagnostics.TransientDivergenceError`
        if a column cannot be salvaged even by the dt backoff.
        """
        self._stepper.evict_factor()
        bad = np.flatnonzero(~np.all(np.isfinite(solution), axis=0))
        for column in bad:
            scratch = TransientStepper(
                self.model,
                self.dt,
                TemperatureField(
                    self.model.grid,
                    states[:, column].copy(),
                    float(times[column]),
                ),
                guard=self.guard,
                solver="direct",
            )
            scratch.step_with_power_vector(
                np.ascontiguousarray(nodal[:, column])
            )
            solution[:, column] = scratch.state.values
        return solution

    def run(
        self,
        packed_traces: Sequence[np.ndarray],
        initial,
    ) -> TransientSweepResult:
        """Integrate every trace over its full length.

        Parameters
        ----------
        packed_traces:
            One ``(steps, n_blocks)`` power array per trace in the
            model's canonical :meth:`CompactThermalModel.block_order`
            (see :meth:`CompactThermalModel.pack_powers`).  All traces
            must be equally long.
        initial:
            A single :class:`TemperatureField` shared by every trace,
            or one field per trace.

        Returns
        -------
        TransientSweepResult
            Final fields (input order) plus the per-step peak
            temperature of every trace.
        """
        operator = self.model.injection_operator()
        n_blocks = operator.shape[1]
        traces = [np.asarray(trace, dtype=float) for trace in packed_traces]
        if not traces:
            raise ValueError("need at least one power trace")
        steps = traces[0].shape[0]
        for index, trace in enumerate(traces):
            if trace.ndim != 2 or trace.shape != (steps, n_blocks):
                raise ValueError(
                    f"trace {index} has shape {trace.shape}; every trace "
                    f"must be ({steps}, {n_blocks})"
                )
            if self.guard.check_finite:
                validate_finite_array(
                    trace, f"packed trace {index}", non_negative=True
                )

        states, times = self._initial_states(initial, len(traces))
        c_over_dt = self.model.capacitance / self.dt
        peak_k = np.empty((steps, len(traces)))
        # (traces, steps, blocks) so one step slices to (traces, blocks).
        powers = np.stack(traces)
        for step in range(steps):
            factor, boundary, _ = self._stepper.factor_entry()
            nodal = operator @ np.ascontiguousarray(powers[:, step, :].T)
            rhs = c_over_dt[:, None] * states + nodal + boundary[:, None]
            solution = factor.solve(rhs)
            if self.guard.check_finite and not np.all(np.isfinite(solution)):
                solution = self._recover_step(states, nodal, solution, times)
            states = solution
            times = times + self.dt
            peak_k[step] = states.max(axis=0)
        fields = [
            TemperatureField(
                self.model.grid,
                np.ascontiguousarray(states[:, column]),
                float(times[column]),
            )
            for column in range(len(traces))
        ]
        return TransientSweepResult(fields=fields, peak_k=peak_k, steps=steps)


def fan_out(
    fn: Callable[[T], R],
    items: Iterable[T],
    processes: Optional[int] = None,
) -> List[R]:
    """Apply ``fn`` to every item, optionally in worker processes.

    The strict form of :func:`resilient_fan_out`: no retries, and the
    first job that fails raises, with its own exception when it raised
    one, or a ``RuntimeError`` naming the job when its worker died.

    Parameters
    ----------
    fn:
        A module-level callable when ``processes`` is used, so that a
        spawn worker can import it by name.
    items:
        The independent work items.
    processes:
        ``None``, 0 or 1 run serially in-process; larger values run
        each item in a worker process of its own, at most
        ``processes`` at a time.

    Results are returned in item order either way, so callers can
    toggle parallelism without touching downstream code.
    """
    outcome = _Sweep(fn, list(items), strict=True).run(processes)
    return [value for _, value in outcome.results]


@dataclass
class SimulationJob:
    """One picklable closed-loop simulation.

    The single job type behind every fan-out below, in one of two
    construction modes:

    * **scenario-backed** (preferred): ``scenario`` holds a declarative
      :class:`~repro.scenario.Scenario`; the stack, policy, trace,
      thermal model and fault set are built from it and the run can be
      served from the hash-keyed result cache.
    * **legacy objects**: ``stack``/``policy``/``trace`` carry live
      instances and ``kwargs`` are forwarded to
      :class:`SystemSimulator` (grid resolution, control period, ...).

    ``key`` is an opaque caller label carried through to make result
    bookkeeping trivial after a fan-out; scenario-backed jobs default
    it to the scenario's ``label``.
    """

    stack: Optional[StackDesign] = None
    policy: Optional[Policy] = None
    trace: Optional[WorkloadTrace] = None
    key: object = None
    kwargs: Dict[str, object] = field(default_factory=dict)
    scenario: Optional[Scenario] = None

    def __post_init__(self) -> None:
        if self.scenario is not None:
            if (
                self.stack is not None
                or self.policy is not None
                or self.trace is not None
                or self.kwargs
            ):
                raise ValueError(
                    "a scenario-backed job must not also carry live "
                    "stack/policy/trace objects or kwargs — put the "
                    "configuration into the Scenario"
                )
            if self.key is None:
                self.key = self.scenario.label
        elif self.stack is None or self.policy is None or self.trace is None:
            raise ValueError(
                "a job needs either a Scenario or all three of "
                "stack, policy and trace"
            )

    @classmethod
    def from_scenario(
        cls, scenario: Scenario, key: object = None
    ) -> "SimulationJob":
        """A job for one declarative scenario (``key`` defaults to its
        label)."""
        return cls(scenario=scenario, key=key)

    def run(
        self,
        cache: Optional[ResultCache] = None,
        model: Optional[CompactThermalModel] = None,
    ) -> SimulationResult:
        """Execute the job (scenario jobs may hit the result cache).

        ``model`` is a pre-assembled thermal model of the job's stack
        and grid to run on; without one the run assembles its own.  A
        ``model`` in a legacy job's ``kwargs`` takes precedence.
        """
        if self.scenario is not None:
            return Runner(self.scenario, model=model, cache=cache).run()
        kwargs = {"model": model, **self.kwargs}
        return SystemSimulator(self.stack, self.policy, self.trace, **kwargs).run()


JobLike = Union[SimulationJob, Scenario]


def _coerce_jobs(jobs: Sequence[JobLike]) -> List[SimulationJob]:
    """Accept bare scenarios anywhere a job sequence is expected."""
    return [
        SimulationJob.from_scenario(job)
        if isinstance(job, Scenario)
        else job
        for job in jobs
    ]


class _SweepModels:
    """The thermal models one simulation sweep shares between its jobs.

    Jobs need the same model when they share a
    :meth:`Scenario.model_hash`, or a stack object and grid (legacy
    jobs; the job list holds each stack, so its ``id`` stays unique).
    Only a key that two or more jobs use is shared: any other job
    assembles its own model where it runs, as a plain run does, and a
    serial sweep drops a shared model after its key's last job.  A
    reused model is reset to the flow and the cold Krylov starts of a
    fresh one, so every run equals a fresh run bitwise.
    """

    def __init__(self, jobs: Sequence[SimulationJob], cache_dir: Optional[str]) -> None:
        self.cache = ResultCache(cache_dir) if cache_dir is not None else None
        self.uses = Counter(self.key(job) for job in jobs)
        self.models: Dict[object, CompactThermalModel] = {}

    def key(self, job: SimulationJob) -> object:
        """``job``'s model key; ``None`` when the result cache already
        holds its result, so that it needs no model."""
        if job.scenario is None:
            nx = int(job.kwargs.get("nx", DEFAULT_NX))
            ny = int(job.kwargs.get("ny", DEFAULT_NY))
            return (id(job.stack), nx, ny)
        if self.cache is not None and self.cache.path(job.scenario).exists():
            return None
        return job.scenario.model_hash()

    def model(self, job: SimulationJob) -> Optional[CompactThermalModel]:
        """The shared model for ``job``, or ``None`` for its own."""
        key = self.key(job)
        if key is None:
            return None
        left = self.uses[key]  # jobs of this key yet to start, this one too
        self.uses[key] -= 1
        model = self.models.get(key) if left > 1 else self.models.pop(key, None)
        if model is not None:
            model.set_flow(constants.FLOW_RATE_MAX_ML_MIN)
            model.clear_warm_starts()
        elif left > 1:
            model = self.models[key] = self._assemble(job, key)
        return model

    def prewarm(self, jobs: Sequence[SimulationJob]) -> None:
        """Assemble and prewarm every shared model
        (:meth:`CompactThermalModel.prewarm`), for fork workers to
        inherit copy-on-write; a spawn worker assembles its own."""
        for job in jobs:
            key = self.key(job)
            if key is not None and self.uses[key] > 1 and key not in self.models:
                model = self.models[key] = self._assemble(job, key)
                model.prewarm()

    @staticmethod
    def _assemble(job: SimulationJob, key: object) -> CompactThermalModel:
        if job.scenario is not None:
            return build_model(job.scenario)
        return CompactThermalModel(job.stack, nx=key[1], ny=key[2])

    def run(self, job: SimulationJob, capture: bool = False) -> object:
        if not capture:
            return job.run(self.cache, self.model(job))
        payload: Dict[str, object] = {}
        with capture_telemetry(payload):
            result = job.run(self.cache, self.model(job))
        return result, payload


def _job_runner(
    jobs: Sequence[SimulationJob],
    processes: Optional[int],
    cache_dir: Optional[Union[str, Path]],
) -> Callable[[SimulationJob], object]:
    """The per-job function of one simulation sweep."""
    models = _SweepModels(jobs, None if cache_dir is None else str(cache_dir))
    parallel = processes is not None and processes > 1
    if parallel and multiprocessing.get_start_method() == "fork":
        models.prewarm(jobs)
    # Serial jobs emit straight into the parent's sinks.  A worker has
    # none, so it captures its spans and metric delta into the value it
    # returns, but only when someone is recording.
    return partial(models.run, capture=parallel and get_tracer().has_sinks)


def run_simulations(
    jobs: Sequence[JobLike],
    processes: Optional[int] = None,
    *,
    cache_dir: Optional[Union[str, Path]] = None,
) -> List[Tuple[object, SimulationResult]]:
    """Run independent simulations, optionally across processes.

    The strict form of :func:`run_simulations_resilient`, as
    :func:`fan_out` is of :func:`resilient_fan_out`: the first failed
    job raises.  ``jobs`` may mix :class:`SimulationJob` instances and
    bare :class:`~repro.scenario.Scenario` specs.  Jobs that share a
    thermal model (one :meth:`Scenario.model_hash`, or one stack object
    and grid) assemble it once per sweep; results equal fresh per-job
    runs.  With ``cache_dir`` set, scenario-backed jobs are served from
    (and written to) the on-disk result cache keyed by scenario content
    hash + code version, so a repeated sweep point costs a pickle load
    instead of a solve.

    Returns ``(job.key, result)`` pairs in job order.
    """
    jobs = _coerce_jobs(jobs)
    tracer = get_tracer()
    with tracer.span(
        "sweep.run_simulations", jobs=len(jobs), processes=processes or 1
    ):
        values = fan_out(_job_runner(jobs, processes, cache_dir), jobs, processes)
        return [
            (job.key, _merge_worker_value(tracer, job.key, value))
            for job, value in zip(jobs, values)
        ]


def _merge_worker_value(tracer, key: object, value: object) -> object:
    """Unwrap one worker return, folding any telemetry payload in.

    Each captured job becomes one ``sweep.job`` span in the parent
    trace with the worker's spans re-sequenced beneath it; the worker's
    metric delta merges into the parent registry so rollups count
    worker and serial runs identically.
    """
    if (
        isinstance(value, tuple)
        and len(value) == 2
        and is_obs_payload(value[1])
    ):
        from ..obs.live import current_trace

        result, payload = value
        attrs: Dict[str, object] = {"key": str(key)}
        context = current_trace()
        if context is not None:
            # Sweeps running under a distributed trace (e.g. inside a
            # service worker) keep their fan-out joined to it.
            attrs["trace_id"] = context.trace_id
        with tracer.span("sweep.job", **attrs):
            tracer.ingest(payload.get("spans", ()), depth_offset=tracer.depth)
        get_registry().merge(payload.get("metrics", {}))
        return result
    return value


# ---------------------------------------------------------------------------
# the job engine
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JobFailure:
    """Structured record of one job that could not be completed.

    Attributes
    ----------
    index:
        Position of the job in the submitted sequence.
    key:
        The caller's label for the job (job index when none given).
    phase:
        ``"exception"`` (the job raised), ``"timeout"`` (exceeded the
        per-job deadline) or ``"worker-crash"`` (the worker process
        died — segfault, OOM kill, ``os._exit``).
    error_type, message, traceback:
        Exception details when available; the traceback is rendered
        where the job ran, so it survives pickling.  A crash reports
        ``error_type="BrokenProcessPool"`` and the worker's exit code
        in ``message``.
    attempts:
        Attempts consumed before giving up.
    elapsed_s:
        Wall time the final attempt ran before failing: measured
        around the job where it ran for exceptions, in the parent from
        the worker's start for timeouts and crashes.
    retry_index:
        Zero-based index of the failing attempt (``attempts - 1``).
    last_span:
        Name of the innermost tracer span open when the job died
        (empty when the failure happened outside any span, or the
        worker crashed before reporting).
    """

    index: int
    key: object
    phase: str
    error_type: str
    message: str
    traceback: str = ""
    attempts: int = 1
    elapsed_s: Optional[float] = None
    retry_index: int = 0
    last_span: str = ""


def _failure_line(failure: JobFailure) -> str:
    return (
        f"[{failure.phase}] job {failure.key!r}: "
        f"{failure.error_type}: {failure.message}"
    )


@dataclass
class SweepOutcome:
    """Partial results of a resilient fan-out.

    ``results`` holds ``(key, value)`` pairs of the jobs that succeeded,
    in submission order; ``failures`` the structured records of those
    that did not.  ``results + failures`` always covers every submitted
    job exactly once.
    """

    results: List[Tuple[object, object]]
    failures: List[JobFailure]
    total: int

    @property
    def succeeded(self) -> int:
        return len(self.results)

    @property
    def complete(self) -> bool:
        """True when every job produced a result."""
        return not self.failures

    def result_map(self) -> Dict[object, object]:
        """``{key: value}`` of the successful jobs."""
        return dict(self.results)

    def raise_if_failed(self) -> "SweepOutcome":
        """Raise a ``RuntimeError`` summarising failures, if any."""
        if self.failures:
            lines = [f"  {_failure_line(f)}" for f in self.failures]
            raise RuntimeError(
                f"{len(self.failures)}/{self.total} jobs failed:\n"
                + "\n".join(lines)
            )
        return self


def _checkpoint_corrupt(path: Path, reason: str) -> None:
    """Count and trace a fresh start forced by a damaged checkpoint.

    Same policy :class:`~repro.scenario.cache.ResultCache` applies to
    corrupt entries: a truncated or unpicklable checkpoint degrades to
    recomputation, never to a crash — but never silently either.
    """
    get_registry().counter("sweep.checkpoint_corrupt").inc()
    get_tracer().event(
        "sweep.checkpoint_corrupt", path=str(path), reason=reason
    )


def _load_checkpoint(
    path: Optional[Path], total: int
) -> Dict[int, object]:
    if path is None or not Path(path).exists():
        return {}
    try:
        payload = pickle.loads(Path(path).read_bytes())
    except Exception as exc:
        # Truncated file (a killed writer predating the atomic rename),
        # foreign classes, bit rot: unpickling can raise nearly
        # anything.  Counted, traced, fresh start.
        _checkpoint_corrupt(Path(path), type(exc).__name__)
        return {}
    if not isinstance(payload, dict):
        _checkpoint_corrupt(
            Path(path), f"payload is {type(payload).__name__}, not dict"
        )
        return {}
    if payload.get("total") != total:
        return {}
    return dict(payload.get("results", {}))


def _save_checkpoint(
    path: Optional[Path], results: Dict[int, object], total: int
) -> None:
    if path is None:
        return
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_bytes(
        pickle.dumps({"results": dict(results), "total": total})
    )
    tmp.replace(path)


def _job_error(exc: BaseException, start: Optional[float]) -> Dict[str, object]:
    """The error outcome of a job that raised ``exc``: the time since
    ``start`` (``perf_counter()``), the innermost open span and the
    exception, which a strict sweep re-raises, added to the report."""
    return {
        **error_report(exc),
        "elapsed_s": None if start is None else _time.perf_counter() - start,
        "last_span": getattr(exc, "_obs_last_span", "") or "",
        "exception": exc,
    }


def _run_in_worker(conn, fn: Callable, item: object) -> None:
    """Worker-process entry: run one job, send its outcome, exit.

    The outcome is ``{"kind": "done", "value": ...}`` or the job's
    error; an exception that does not pickle travels without itself,
    a value that does not pickle as the error of pickling it.
    """
    start = _time.perf_counter()
    try:
        message = {"kind": "done", "value": fn(item)}
    except BaseException as exc:  # the process's last act is to report
        message = _job_error(exc, start)
    try:
        conn.send(message)
    except Exception as exc:  # the value or the exception did not pickle
        if message["kind"] == "done":
            message = _job_error(exc, None)
        del message["exception"]
        conn.send(message)
    conn.close()


_PHASES = {"error": "exception", "crash": "worker-crash", "timeout": "timeout"}
"""The :attr:`JobFailure.phase` of each failed outcome's kind."""


@dataclass
class _Sweep:
    """One fan-out's attempts, results and failures, run to the end.

    ``strict`` turns the first failure that has no attempts left into
    an exception (the :func:`fan_out` contract) instead of a record.
    """

    fn: Callable
    work: list
    keys: Optional[Sequence[object]] = None
    timeout_s: Optional[float] = None
    retry: RetryPolicy = RetryPolicy(retries=0, backoff_s=0.0)
    checkpoint_path: Optional[Path] = None
    checkpoint_every: int = 8
    strict: bool = False

    def __post_init__(self) -> None:
        total = len(self.work)
        self.keys = list(range(total)) if self.keys is None else list(self.keys)
        if len(self.keys) != total:
            raise ValueError("keys must match items one-to-one")
        if self.retry.retries < 0:
            raise ValueError("retries must be non-negative")
        self.results = _load_checkpoint(self.checkpoint_path, total)
        self.failures: Dict[int, JobFailure] = {}
        self.attempts = [0] * total
        self._unsaved = 0

    def run(self, processes: Optional[int]) -> SweepOutcome:
        pending = [i for i in range(len(self.work)) if i not in self.results]
        try:
            if processes is None or processes <= 1:
                self._run_serial(pending)
            else:
                self._run_workers(pending, processes)
        finally:
            # Flush on every exit path -- including KeyboardInterrupt and
            # SystemExit mid-grid -- so an interrupted sweep always
            # leaves a loadable checkpoint that resumes without
            # re-solving finished jobs (no-op when checkpointing is off).
            _save_checkpoint(self.checkpoint_path, self.results, len(self.work))
        return SweepOutcome(
            results=[(self.keys[i], self.results[i]) for i in sorted(self.results)],
            failures=[self.failures[i] for i in sorted(self.failures)],
            total=len(self.work),
        )

    def _succeeded(self, index: int, value: object) -> None:
        self.results[index] = value
        self._unsaved += 1
        if (
            self.checkpoint_path is not None
            and self._unsaved >= self.checkpoint_every
        ):
            _save_checkpoint(self.checkpoint_path, self.results, len(self.work))
            self._unsaved = 0

    def _failed(self, index: int, outcome: Dict[str, object]) -> None:
        """Record a job whose last attempt failed with ``outcome``."""
        attempts = self.attempts[index]
        failure = JobFailure(
            index=index,
            key=self.keys[index],
            phase=_PHASES[outcome["kind"]],
            # A crash keeps the label of the process-pool era; callers
            # match on it.
            error_type=outcome.get("error_type", "BrokenProcessPool"),
            message=outcome["message"],
            traceback=outcome.get("traceback", ""),
            attempts=attempts,
            elapsed_s=outcome.get("elapsed_s"),
            retry_index=attempts - 1,
            last_span=outcome.get("last_span", ""),
        )
        if self.strict:
            exc = outcome.get("exception")
            raise exc if exc is not None else RuntimeError(_failure_line(failure))
        self.failures[index] = failure

    def _run_serial(self, pending: List[int]) -> None:
        for index in pending:
            while True:
                self.attempts[index] += 1
                start = _time.perf_counter()
                try:
                    value = self.fn(self.work[index])
                except Exception as exc:
                    if self.retry.exhausted(self.attempts[index]):
                        self._failed(index, _job_error(exc, start))
                        break
                    _time.sleep(self.retry.delay(self.attempts[index]))
                else:
                    self._succeeded(index, value)
                    break

    def _run_workers(self, pending: List[int], processes: int) -> None:
        """Each attempt in a worker of its own, at most ``processes`` alive.

        Jobs start in submission order; a failed one goes to the back
        and starts once its backoff has ended.  The shared
        :class:`AttemptTable` keeps the workers, deadlines and backoffs.
        """
        table = AttemptTable(retry=self.retry, timeout_s=self.timeout_s)
        waiting = deque(pending)
        try:
            while waiting or table.running:
                free = processes - len(table.running)
                for index in list(islice(filter(table.ready, waiting), free)):
                    waiting.remove(index)
                    self.attempts[index] += 1
                    args = (self.fn, self.work[index])
                    table.start(index, _run_in_worker, args, daemon=False)
                table.wait()
                for attempt in table.poll():
                    index, outcome = attempt.key, attempt.outcome
                    if outcome["kind"] == "done":
                        self._succeeded(index, outcome["value"])
                    elif table.retry_later(index, self.attempts[index]):
                        waiting.append(index)
                    else:
                        exc = outcome.get("exception")
                        if exc is not None:  # shown when a strict sweep raises it
                            exc.__cause__ = RuntimeError(
                                "raised in a worker process\n"
                                + outcome["traceback"]
                            )
                        self._failed(index, outcome)
        finally:
            table.close()


def resilient_fan_out(
    fn: Callable[[T], R],
    items: Iterable[T],
    processes: Optional[int] = None,
    *,
    keys: Optional[Sequence[object]] = None,
    timeout_s: Optional[float] = None,
    retries: int = 1,
    backoff_s: float = 0.0,
    backoff_jitter: float = 0.25,
    checkpoint_path: Optional[Path] = None,
    checkpoint_every: int = 8,
) -> SweepOutcome:
    """Fan out with per-job isolation: one bad job cannot sink the grid.

    With ``processes > 1`` every attempt runs in a worker process of
    its own (:class:`repro.workers.AttemptTable`, which the job
    service drives too), at most ``processes`` at a time, and reports
    its outcome over a one-way pipe.  Guarantees, relative to plain
    :func:`fan_out`:

    * a job that **raises** is retried ``retries`` times with
      exponential backoff spread by ``backoff_jitter`` (a ±fraction of
      the delay, so simultaneous failures do not retry in lockstep;
      set it to ``0.0`` for deterministic timing), then recorded as a
      :class:`JobFailure` while every sibling still completes;
    * a job that **kills its worker** (segfault, OOM, ``os._exit``)
      fails alone, as ``phase="worker-crash"`` with the exit code in
      its message, and is retried like any other failure;
    * a job that **hangs** past ``timeout_s``, counted from its own
      start, is terminated and recorded as a timeout failure (after
      its retries) — process mode only, a serial run cannot pre-empt
      the job;
    * no worker outlives the call, on any exit path;
    * with ``checkpoint_path`` the completed results are periodically
      pickled, and a re-run with the same path and job count resumes,
      re-running only unfinished or previously failed jobs.  The
      checkpoint is also flushed when the sweep is interrupted
      (``KeyboardInterrupt`` / ``SystemExit``), so a ctrl-C mid-grid
      leaves a loadable resume point; a corrupt checkpoint file is a
      counted, traced fresh start (``sweep.checkpoint_corrupt``),
      never a crash.

    Serial runs (``processes in (None, 0, 1)``) honour retries,
    backoff, checkpoints and exception isolation, but cannot survive a
    job that kills the interpreter nor enforce timeouts.

    Returns a :class:`SweepOutcome`; ``keys`` default to job indices.
    """
    return _Sweep(
        fn,
        list(items),
        keys=keys,
        timeout_s=timeout_s,
        retry=RetryPolicy(retries, backoff_s, jitter=backoff_jitter),
        checkpoint_path=checkpoint_path,
        checkpoint_every=checkpoint_every,
    ).run(processes)


def run_simulations_resilient(
    jobs: Sequence[JobLike],
    processes: Optional[int] = None,
    *,
    timeout_s: Optional[float] = None,
    retries: int = 1,
    backoff_s: float = 0.0,
    backoff_jitter: float = 0.25,
    checkpoint_path: Optional[Path] = None,
    checkpoint_every: int = 8,
    cache_dir: Optional[Union[str, Path]] = None,
) -> SweepOutcome:
    """Resilient :func:`run_simulations`: partial results, not aborts.

    Where :func:`run_simulations` re-raises the first failure and
    loses the whole grid, this returns a :class:`SweepOutcome` whose
    ``results`` are ``(job.key, SimulationResult)`` pairs for the
    jobs that completed and whose ``failures`` carry a structured
    :class:`JobFailure` per job that could not be salvaged.  See
    :func:`resilient_fan_out` for the retry/timeout/crash semantics.
    Models are shared and ``cache_dir`` honoured exactly as in
    :func:`run_simulations`.
    """
    jobs = _coerce_jobs(jobs)
    tracer = get_tracer()
    with tracer.span(
        "sweep.run_simulations_resilient",
        jobs=len(jobs),
        processes=processes or 1,
    ):
        outcome = resilient_fan_out(
            _job_runner(jobs, processes, cache_dir),
            jobs,
            processes,
            keys=[job.key for job in jobs],
            timeout_s=timeout_s,
            retries=retries,
            backoff_s=backoff_s,
            backoff_jitter=backoff_jitter,
            checkpoint_path=checkpoint_path,
            checkpoint_every=checkpoint_every,
        )
        # Unwrap unconditionally: resumed checkpoints may hold capture
        # tuples from an earlier traced run even when capture is off.
        outcome.results = [
            (key, _merge_worker_value(tracer, key, value))
            for key, value in outcome.results
        ]
        return outcome
