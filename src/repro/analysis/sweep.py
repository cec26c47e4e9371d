"""Reusable sweep engine for design-space and policy studies.

The layers, from cheapest to heaviest:

* :class:`SteadySweep` — batched steady-state solves over one thermal
  model.  Cases are grouped by flow state so each distinct ``A(f)`` is
  factorised once (through the model's steady-factor cache) and solved
  with one multi-right-hand-side triangular solve.  SuperLU processes
  the RHS columns independently, so the fields are bitwise identical
  to point-by-point :meth:`CompactThermalModel.steady_state` calls.
* One job engine for independent work items:
  :func:`resilient_fan_out` runs them serially or in worker processes,
  with retries, per-job timeouts and crash isolation; :func:`fan_out`
  is its strict form, which raises on the first failure.  Its workers,
  deadlines and backoffs are the :class:`repro.workers.AttemptTable`
  the job service drives too; the engine adds serial mode,
  checkpoints, strict mode and the order in which jobs run.
* :func:`run_simulations` / :func:`run_simulations_resilient` —
  closed-loop runs as jobs of that engine.  A job is a declarative
  :class:`~repro.scenario.Scenario`, keyed by its ``label``.  Every
  (stack, policy, workload) combination is independent, which is what
  makes the benchmark grids embarrassingly parallel, and a job can be
  served from the hash-keyed on-disk result cache (``cache_dir=...``)
  so repeated sweep points are never recomputed.

As in the job service, a worker parks after a job that succeeds and
takes the next job of its group; a job that fails retires it.  A
simulation sweep groups its jobs by
:meth:`~repro.scenario.Scenario.model_hash` and runs each group on a
:class:`~repro.scenario.runner.KeptModel`, the sweep's own when serial
and each worker's own in processes.  Processes only win when each job
runs for seconds (closed-loop simulations, fine-grid steady maps) —
the benchmark harness keeps them opt-in via ``REPRO_BENCH_PROCESSES``.
"""

from __future__ import annotations

import pickle
import time as _time
from collections import deque
from dataclasses import dataclass
from functools import partial
from itertools import islice
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Hashable,
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

from ..core.simulator import SimulationResult
from ..obs import capture_telemetry, is_obs_payload
from ..obs.metrics import get_registry
from ..obs.trace import get_tracer
from ..scenario.cache import ResultCache
from ..scenario.runner import KeptModel, run_scenario
from ..scenario.spec import Scenario
from ..thermal.field import TemperatureField
from ..thermal.model import BlockRef, CompactThermalModel
from ..workers import AttemptTable, RetryPolicy, error_report

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
        The independent work items; picklable when ``processes`` is
        used, since a parked worker is handed its next item through a
        pipe.
    processes:
        ``None``, 0 or 1 run serially in-process; larger values run
        the items in at most ``processes`` worker processes, each of
        which runs items until the sweep ends or one fails.

    Results are returned in item order either way, so callers can
    toggle parallelism without touching downstream code.
    """
    outcome = _Sweep(fn, list(items), strict=True).run(processes)
    return [value for _, value in outcome.results]


def _run_job(
    job: Scenario,
    *,
    kept: KeptModel,
    cache: Optional[ResultCache],
    capture: bool,
) -> object:
    """One job of a simulation sweep, on its process's ``kept`` model;
    ``capture`` adds its spans and metric delta to the value."""
    if not capture:
        return run_scenario(job, model=kept.for_run(job, cache), cache=cache)
    payload: Dict[str, object] = {}
    with capture_telemetry(payload):
        result = _run_job(job, kept=kept, cache=cache, capture=False)
    return result, payload


def _simulate(
    jobs: List[Scenario],
    processes: Optional[int],
    cache_dir: Optional[Union[str, Path]],
    **options,
) -> SweepOutcome:
    """Run ``jobs`` as one sweep of the job engine, grouped by model
    hash, each on a kept model; ``options`` go to :class:`_Sweep`."""
    # Serial jobs emit straight into the parent's sinks.  A worker has
    # none, so it captures its spans and metric delta into the value it
    # returns, but only when someone is recording.
    run = partial(
        _run_job,
        kept=KeptModel(),
        cache=None if cache_dir is None else ResultCache(cache_dir),
        capture=processes is not None and processes > 1 and get_tracer().has_sinks,
    )
    groups = [job.model_hash() for job in jobs]
    return _Sweep(run, jobs, groups=groups, **options).run(processes)


def run_simulations(
    jobs: Sequence[Scenario],
    processes: Optional[int] = None,
    *,
    cache_dir: Optional[Union[str, Path]] = None,
) -> List[Tuple[Optional[str], SimulationResult]]:
    """Run independent scenarios, optionally across processes.

    The strict form of :func:`run_simulations_resilient`, as
    :func:`fan_out` is of :func:`resilient_fan_out`: the first failed
    job raises.  Jobs that share a thermal model (one
    :meth:`Scenario.model_hash`) run back to back on one kept model
    per process; results equal fresh
    :func:`~repro.scenario.run_scenario` runs.  With
    ``cache_dir`` set, jobs are served from (and written to) the
    on-disk result cache keyed by scenario content hash + code version,
    so a repeated sweep point costs a pickle load instead of a solve.

    Returns ``(scenario.label, result)`` pairs in job order.
    """
    jobs = list(jobs)
    tracer = get_tracer()
    with tracer.span(
        "sweep.run_simulations", jobs=len(jobs), processes=processes or 1
    ):
        outcome = _simulate(jobs, processes, cache_dir, strict=True)
        return [
            (job.label, _merge_worker_value(tracer, job.label, value))
            for job, (_, value) in zip(jobs, outcome.results)
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


def _run_in_worker(conn, item: object, *, fn: Callable) -> None:
    """Worker-process entry: run one job and send its outcome.

    The outcome is ``{"kind": "done", "value": ...}`` or the job's
    error; an exception that does not pickle travels without itself,
    a value that does not pickle as the error of pickling it.  The
    pipe stays open: the worker parks on it after a ``done``.
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


_PHASES = {"error": "exception", "crash": "worker-crash", "timeout": "timeout"}
"""The :attr:`JobFailure.phase` of each failed outcome's kind."""


@dataclass
class _Sweep:
    """One fan-out's attempts, results and failures, run to the end.

    ``strict`` turns the first failure that has no attempts left into
    an exception (the :func:`fan_out` contract) instead of a record.
    ``groups`` names each item's group (default: one): a group's items
    run back to back, in one group's workers only.
    """

    fn: Callable
    work: list
    keys: Optional[Sequence[object]] = None
    groups: Optional[Sequence[Hashable]] = None
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
        if self.groups is None:
            self.groups = [None] * total
        if self.retry.retries < 0:
            raise ValueError("retries must be non-negative")
        self.results = _load_checkpoint(self.checkpoint_path, total)
        self.failures: Dict[int, JobFailure] = {}
        self.attempts = [0] * total
        self._unsaved = 0

    def run(self, processes: Optional[int]) -> SweepOutcome:
        first: Dict[Hashable, int] = {}  # groups run in order of appearance
        for index, group in enumerate(self.groups):
            first.setdefault(group, index)
        pending = [i for i in range(len(self.work)) if i not in self.results]
        pending.sort(key=lambda i: first[self.groups[i]])
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
        """The jobs in at most ``processes`` workers.

        Jobs start in ``pending`` order; a failed one goes to the back
        and starts once its backoff has ended.  ``fn`` is bound into each
        worker at its start, so its state (a kept model) outlives a job.
        The shared :class:`AttemptTable` keeps the workers, deadlines
        and backoffs.
        """
        table = AttemptTable(retry=self.retry, timeout_s=self.timeout_s)
        target = partial(_run_in_worker, fn=self.fn)
        waiting = deque(pending)
        try:
            while waiting or table.running:
                free = processes - len(table.running)
                for index in list(islice(filter(table.ready, waiting), free)):
                    waiting.remove(index)
                    self.attempts[index] += 1
                    args, group = (self.work[index],), self.groups[index]
                    table.dispatch(
                        index, target, args, group=group, slots=processes, daemon=False
                    )
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

    With ``processes > 1`` the attempts run in at most ``processes``
    worker processes (:class:`repro.workers.AttemptTable`, which the
    job service drives too), and each reports its outcome over a
    one-way pipe.  A worker runs attempts until one fails.  Guarantees,
    relative to plain :func:`fan_out`:

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
    jobs: Sequence[Scenario],
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
    ``results`` are ``(scenario.label, SimulationResult)`` pairs for the
    jobs that completed and whose ``failures`` carry a structured
    :class:`JobFailure` per job that could not be salvaged.  See
    :func:`resilient_fan_out` for the retry/timeout/crash semantics.
    Models are kept and ``cache_dir`` honoured exactly as in
    :func:`run_simulations`.
    """
    jobs = list(jobs)
    tracer = get_tracer()
    with tracer.span(
        "sweep.run_simulations_resilient",
        jobs=len(jobs),
        processes=processes or 1,
    ):
        outcome = _simulate(
            jobs,
            processes,
            cache_dir,
            keys=[job.label for job in jobs],
            timeout_s=timeout_s,
            retry=RetryPolicy(retries, backoff_s, jitter=backoff_jitter),
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
