"""Golden pin of closed-loop results.

Five short closed-loop runs are pinned against values recorded in
``closed_loop_golden.json`` (``float.hex`` strings, so the file holds
every bit): the four perfbench closed_loop kinds cut to 10 s, and one
faulted 2-tier LC_FUZZY run with sensor noise, a stuck sensor, a
clogged cavity and actuator lag.  Every :class:`SimulationResult`
field, every ``record_series`` value and the per-run solver and
cooling counts are compared.

Floats are compared at 1e-12 relative: BLAS kernels may differ in the
last bit across CPUs.  Bitwise identity on one host is checked by
comparing ``float.hex`` dumps of two checkouts (see DESIGN.md §8).

Re-record (only from a commit whose results are known good)::

    PYTHONPATH=src python tests/test_closed_loop_golden.py --record
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import json
import math
import sys
from pathlib import Path

import pytest

from repro.core.policies import LiquidFuzzy
from repro.faults.models import FaultSet
from repro.obs.metrics import get_registry
from repro.scenario import Runner, Scenario
from repro.scenario.spec import (
    ControlSpec,
    FaultSpec,
    FlowFaultSpec,
    PolicySpec,
    SensorFaultSpec,
    StackSpec,
    WorkloadSpec,
)
from repro.thermal.model import CompactThermalModel
from repro.thermal.sensors import TemperatureSensors

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("closed_loop_golden.json")
DURATION = 10
RTOL = 1e-12

COUNTERS = (
    "thermal.transient_steps",
    "thermal.transient_cache.misses",
    "thermal.transient_cache.hits",
    "cooling.march_calls",
    "cooling.march_cache_hits",
    "solver.direct_solves",
)


def _short(scenario: Scenario) -> Scenario:
    return dataclasses.replace(
        scenario,
        workload=dataclasses.replace(scenario.workload, duration=DURATION),
        record_series=True,
    )


def scenarios() -> dict:
    """The pinned runs by name."""
    specs = ROOT / "examples" / "specs"
    faulted = Scenario(
        stack=StackSpec(tiers=2, cooling="liquid"),
        workload=WorkloadSpec(name="web", source="suite", duration=DURATION),
        policy=PolicySpec(name="LC_FUZZY"),
        control=ControlSpec(sensor_noise=0.5),
        faults=FaultSpec(
            sensors=(
                SensorFaultSpec(
                    kind="stuck",
                    layer="tier0_die",
                    block="core3",
                    start=2.0,
                    value_k=330.0,
                ),
            ),
            flows=(
                FlowFaultSpec(
                    kind="clogged-cavity",
                    cavity="cavity0",
                    remaining_fraction=0.4,
                    start=3.0,
                    end=8.0,
                ),
            ),
            actuator_lag_periods=2,
        ),
        label="faulted 2-tier LC_FUZZY",
    )
    tdvfs = Scenario(
        stack=StackSpec(tiers=2, cooling="air"),
        workload=WorkloadSpec(name="database", source="suite", duration=60),
        policy=PolicySpec(name="AC_TDVFS_LB"),
    )
    return {
        "2t_fuzzy": _short(Scenario.load(specs / "two_tier_fuzzy.json")),
        "4t_fuzzy": _short(Scenario.load(specs / "four_tier_fuzzy.json")),
        "2t_twophase": _short(Scenario.load(specs / "two_tier_twophase.json")),
        "2t_tdvfs": _short(tdvfs),
        "2t_faulted": faulted,
    }


def _hex(value):
    if isinstance(value, float):
        return value.hex()
    return value


def record(scenario: Scenario) -> dict:
    """One run's result fields, series and counts (floats as hex)."""
    registry = get_registry()
    before = registry.snapshot()
    result = Runner(scenario).run()
    delta = registry.delta_since(before)
    fields = {
        field.name: _hex(getattr(result, field.name))
        for field in dataclasses.fields(result)
        if field.name != "series"
    }
    series = {
        name: [float(v).hex() for v in values]
        for name, values in sorted(result.series.items())
    }
    counts = {name: delta.get(name, {}).get("value", 0) for name in COUNTERS}
    return {"fields": fields, "series": series, "counts": counts}


def _close(expected, actual) -> bool:
    if not isinstance(expected, str) or not isinstance(actual, str):
        return expected == actual
    try:
        a, b = float.fromhex(expected), float.fromhex(actual)
    except ValueError:  # a plain string field (policy, workload)
        return expected == actual
    if a == b:
        return True
    return math.isfinite(a) and abs(a - b) <= RTOL * max(abs(a), abs(b))


FAULT_PATHS = (
    (TemperatureSensors, "true_values"),
    (CompactThermalModel, "set_cavity_flow"),
    (FaultSet, "delayed_vf"),
    (LiquidFuzzy, "observe_flow"),
)
"""Calls only a faulted liquid run makes (``observe_flow`` needs flow)."""


def _counting(function, calls, key):
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        calls[key] += 1
        return function(*args, **kwargs)

    return wrapper


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def runs():
    """Each pinned run once: ``name -> (record, calls per fault path)``."""
    cache = {}

    def run(name):
        if name not in cache:
            calls = collections.Counter()
            with pytest.MonkeyPatch.context() as patch:
                for owner, attr in FAULT_PATHS:
                    key = f"{owner.__name__}.{attr}"
                    patch.setattr(
                        owner, attr, _counting(vars(owner)[attr], calls, key)
                    )
                cache[name] = (record(scenarios()[name]), calls)
        return cache[name]

    return run


@pytest.mark.parametrize("name", sorted(scenarios()))
def test_closed_loop_matches_golden(golden, runs, name):
    expected = golden[name]
    actual, _ = runs(name)
    assert actual["counts"] == expected["counts"]
    assert actual["fields"].keys() == expected["fields"].keys()
    for key, value in expected["fields"].items():
        assert _close(value, actual["fields"][key]), (
            f"{name}.{key}: {actual['fields'][key]} != {value}"
        )
    assert actual["series"].keys() == expected["series"].keys()
    for key, values in expected["series"].items():
        got = actual["series"][key]
        assert len(got) == len(values) == DURATION * 10, key
        bad = [i for i, (e, g) in enumerate(zip(values, got)) if not _close(e, g)]
        assert not bad, f"{name}.{key} differs at steps {bad[:5]}"


def test_faulted_run_takes_the_fault_paths(runs):
    """The faulted pin reaches every fault branch; a clean run none."""
    _, faulted = runs("2t_faulted")
    _, clean = runs("2t_fuzzy")
    for owner, attr in FAULT_PATHS:
        key = f"{owner.__name__}.{attr}"
        assert faulted[key] > 0, key
    assert clean["TemperatureSensors.true_values"] == 0
    assert clean["CompactThermalModel.set_cavity_flow"] == 0
    assert clean["FaultSet.delayed_vf"] == 0


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit(__doc__)
    GOLDEN.write_text(
        json.dumps(
            {name: record(s) for name, s in sorted(scenarios().items())},
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {GOLDEN}")
