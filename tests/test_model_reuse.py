"""A kept model equals a fresh one, for any sequence of same-hash jobs.

One :class:`~repro.scenario.runner.KeptModel` serves serial sweeps,
sweep workers and warm service workers: it builds the thermal model on
the first job of a :meth:`Scenario.model_hash` and puts it through
:meth:`CompactThermalModel.reset_run_state` before every later one.
Hypothesis generates sequences of small same-hash jobs (2-tier 12x10
stacks, single- and two-phase; LC_LB and LC_FUZZY knobs; four
workloads; pump-wear, dry-out and sensor faults; actuator lag and
sensor noise), some of which end in ``CoolingDryoutError``.  Every job
run on the kept model must equal a fresh :func:`run_scenario` in the
``float.hex`` of every scalar field and every series, or fail with the
same error.  After a run, a reset leaves every field of the kept
model's run state equal to a fresh model's.
"""

from __future__ import annotations

import dataclasses
import multiprocessing

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.analysis import run_simulations
from repro.scenario import (
    ControlSpec,
    CoolingSpec,
    FaultSpec,
    FlowFaultSpec,
    PolicySpec,
    Scenario,
    SensorFaultSpec,
    SolverSpec,
    StackSpec,
    WorkloadSpec,
    run_scenario,
)
from repro.scenario.runner import KeptModel, build_model
from repro.thermal import CoolingDryoutError
from repro.workers import AttemptTable

SINGLE_PHASE = StackSpec(tiers=2, cooling="liquid")
TWO_PHASE = StackSpec(
    tiers=2, cooling="liquid", two_phase=True, cooling_backend=CoolingSpec()
)
SOLVER = SolverSpec(nx=12, ny=10)


def _job(stack, policy, period=0.1, workload="web", faults=None, noise=0.0):
    return Scenario(
        stack=stack,
        workload=WorkloadSpec(name=workload, duration=1),
        policy=policy,
        control=ControlSpec(period=period, sensor_noise=noise),
        faults=faults,
        solver=SOLVER,
    )


STALE_MARCH_PAIR = [
    _job(TWO_PHASE, PolicySpec(name="LC_LB", flow_ml_min=20.0)),
    _job(TWO_PHASE, PolicySpec(name="LC_LB", flow_ml_min=20.0), period=0.05),
]
"""Two two-phase jobs whose march commands share cache keys: their first
commands are one (flow, flux) command, and later ones land in the
first job's 100 W/m^2 flux quanta with fluxes about 1 W/m^2 apart.  A
march cache that outlived the first job's reset would serve the first
job's marches to the second."""

POLICIES = st.sampled_from(
    [
        PolicySpec(name="LC_LB"),
        PolicySpec(name="LC_LB", flow_ml_min=20.0),
        PolicySpec(name="LC_LB", flow_ml_min=20.0004),
        PolicySpec(name="LC_FUZZY"),
        PolicySpec(name="LC_FUZZY", dvfs_control=False),
        PolicySpec(name="LC_FUZZY", flow_control=False),
    ]
)

SENSOR_FAULTS = st.sampled_from(
    [
        SensorFaultSpec(kind="stuck", layer="tier0_die", block="core0", value_k=330.0),
        SensorFaultSpec(kind="dead", layer="tier0_die", block="core3", start=0.5),
        SensorFaultSpec(kind="noisy", layer="tier0_die", block="core0", seed=3),
    ]
)

PUMP_WEAR = st.builds(
    FlowFaultSpec,
    kind=st.just("pump-degradation"),
    remaining_fraction=st.sampled_from([0.5, 0.8]),
    start=st.sampled_from([0.0, 0.4]),
)

DRYOUT = st.builds(
    FlowFaultSpec,
    kind=st.just("dryout"),
    inlet_quality=st.sampled_from([0.3, 0.7]),
    start=st.sampled_from([0.0, 0.5]),
)


@st.composite
def _faults(draw, stack):
    flows = PUMP_WEAR | DRYOUT if stack.two_phase else PUMP_WEAR
    spec = FaultSpec(
        sensors=tuple(draw(st.lists(SENSOR_FAULTS, max_size=1))),
        flows=tuple(draw(st.lists(flows, max_size=1))),
        actuator_lag_periods=draw(st.sampled_from([None, 1])),
    )
    return None if spec == FaultSpec() else spec


@st.composite
def _sequences(draw):
    stack = draw(st.sampled_from([SINGLE_PHASE, TWO_PHASE]))
    job = st.builds(
        _job,
        st.just(stack),
        POLICIES,
        period=st.sampled_from([0.1, 0.05]),
        workload=st.sampled_from(["web", "database", "multimedia", "max-utilisation"]),
        faults=_faults(stack),
        noise=st.sampled_from([0.0, 0.5]),
    )
    return draw(st.lists(job, min_size=2, max_size=4))


def _hex(value):
    """Every float of ``value`` as ``float.hex``, for bitwise comparison."""
    if isinstance(value, float):
        return float.hex(value)
    if isinstance(value, np.ndarray):
        return [float.hex(float(v)) for v in value.ravel()]
    if isinstance(value, (list, tuple)):
        return [_hex(item) for item in value]
    if isinstance(value, dict):
        return {key: _hex(item) for key, item in value.items()}
    return value


def _fields(result) -> dict:
    return {
        field.name: _hex(getattr(result, field.name))
        for field in dataclasses.fields(result)
    }


def _run(job: Scenario, model=None):
    """``job``'s every field in ``float.hex``, or the error it ended in."""
    try:
        return _fields(run_scenario(job, model=model))
    except CoolingDryoutError as exc:
        return ("CoolingDryoutError", str(exc))


@settings(
    max_examples=20,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_sequences())
@example(STALE_MARCH_PAIR)
def test_a_kept_model_runs_every_job_as_a_fresh_model_does(jobs):
    kept = KeptModel()
    model = kept.for_run(jobs[0])
    assert _run(jobs[0], model) == _run(jobs[0])
    for job in jobs[1:]:
        # One model for the hash, reset before each later job.
        assert kept.for_run(job) is model
        assert _run(job, model) == _run(job)


def test_the_stale_march_pair_on_one_parked_sweep_worker(monkeypatch):
    # Four jobs over two processes: each worker runs two, the second
    # handed to it while parked, on the model it kept.
    started = []
    start = AttemptTable.start

    def counted(self, *args, **kwargs):
        started.append(1)
        return start(self, *args, **kwargs)

    monkeypatch.setattr(AttemptTable, "start", counted)
    jobs = [STALE_MARCH_PAIR[i] for i in (0, 1, 1, 0)]
    jobs = [job.with_label(f"job-{i}") for i, job in enumerate(jobs)]
    results = run_simulations(jobs, processes=2)
    assert len(started) == 2
    assert multiprocessing.active_children() == []
    for job, (label, result) in zip(jobs, results):
        assert label == job.label
        assert _fields(result) == _fields(run_scenario(job))


def _differences(kept, fresh, path="run_state"):
    """The paths at which two objects differ, walked field by field:
    arrays by ``np.array_equal``, caches by their contents (entries in
    order, and the counts), objects by their attributes."""
    if type(kept) is not type(fresh):
        return [f"{path}: {type(kept).__name__} != {type(fresh).__name__}"]
    if isinstance(kept, np.ndarray):
        return [] if np.array_equal(kept, fresh) else [path]
    if isinstance(kept, dict):
        if list(kept) != list(fresh):
            return [f"{path}: keys {list(kept)} != {list(fresh)}"]
        pairs = [(f"{path}[{key!r}]", kept[key], fresh[key]) for key in kept]
    elif isinstance(kept, (list, tuple)):
        if len(kept) != len(fresh):
            return [f"{path}: {len(kept)} != {len(fresh)} items"]
        pairs = [(f"{path}[{i}]", a, b) for i, (a, b) in enumerate(zip(kept, fresh))]
    elif dataclasses.is_dataclass(kept):
        names = [field.name for field in dataclasses.fields(kept)]
        pairs = [(f"{path}.{n}", getattr(kept, n), getattr(fresh, n)) for n in names]
    elif hasattr(kept, "__dict__"):
        return _differences(vars(kept), vars(fresh), path)
    elif hasattr(type(kept), "__slots__"):
        names = type(kept).__slots__
        pairs = [(f"{path}.{n}", getattr(kept, n), getattr(fresh, n)) for n in names]
    else:
        return [] if kept == fresh else [f"{path}: {kept!r} != {fresh!r}"]
    return [diff for p, a, b in pairs for diff in _differences(a, b, p)]


DRYOUT_RUN = _job(
    TWO_PHASE,
    PolicySpec(name="LC_FUZZY"),
    faults=FaultSpec(
        flows=(FlowFaultSpec(kind="dryout", inlet_quality=0.7, start=0.5),)
    ),
)
"""A dynamic two-phase run that marches, installs a dry-out fault and
ends in ``CoolingDryoutError``."""

WORN_PUMP_RUN = dataclasses.replace(
    _job(
        SINGLE_PHASE,
        PolicySpec(name="LC_FUZZY"),
        faults=FaultSpec(
            flows=(FlowFaultSpec(kind="pump-degradation", remaining_fraction=0.5),),
            actuator_lag_periods=1,
        ),
        noise=0.5,
    ),
    solver=SolverSpec(nx=12, ny=10, backend="iterative"),
)
"""A single-phase run on the iterative backend, so its steady solves
leave Krylov warm starts, with pump wear, sensor noise and actuator
lag."""


@pytest.mark.parametrize("job", [DRYOUT_RUN, WORN_PUMP_RUN], ids=["dryout", "pump"])
def test_a_reset_leaves_the_run_state_of_a_fresh_model(job):
    model = build_model(job)
    try:
        run_scenario(job, model=model)
    except CoolingDryoutError:
        assert job is DRYOUT_RUN
    else:
        assert job is not DRYOUT_RUN
    fresh = build_model(job, stack=model.stack).run_state
    # The run left state behind: the walk has something to find.
    assert _differences(model.run_state, fresh)
    model.reset_run_state()
    assert _differences(model.run_state, fresh) == []
