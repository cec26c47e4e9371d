"""BENCHMARK.json mirrors the metric names the runs print, within its format limits."""

import json
import re

import pytest
from pbench import metrics
from pbench.common import REPO_ROOT

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def spec():
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


def test_names_and_units_match(spec):
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metrics.PER_LAYER


def test_format_limits(spec):
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])
    assert 1 <= len(spec["per_layer"]) <= 128
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])


def test_every_layer_metric_is_printed_and_unknown_ones_rejected():
    shown = metrics.per_layer({"grid.wall_s": 1.5})
    assert list(shown) == list(metrics.PER_LAYER)
    assert shown["grid.wall_s"] == (1.5, "s") and shown["4t_fuzzy.wall_s"] == (0.0, "s")
    with pytest.raises(ValueError):
        metrics.per_layer({"no.such_metric": 1.0})
    with pytest.raises(ValueError):
        metrics.end_to_end({"solve_s": 1.0})
