"""The Mamdani fuzzy-inference engine."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import TriangularMF, FuzzyVariable, FuzzyRule, MamdaniController
from repro.core.fuzzy import three_level_variable


# ---------------------------------------------------------------------------
# membership functions
# ---------------------------------------------------------------------------


def test_triangle_membership():
    mf = TriangularMF(0.0, 0.5, 1.0)
    assert mf.membership(0.0) == 0.0
    assert mf.membership(0.25) == pytest.approx(0.5)
    assert mf.membership(0.5) == 1.0
    assert mf.membership(0.75) == pytest.approx(0.5)
    assert mf.membership(1.0) == 0.0


def test_left_shoulder():
    mf = TriangularMF(0.0, 0.0, 1.0)
    assert mf.membership(-5.0) == 1.0
    assert mf.membership(0.0) == 1.0
    assert mf.membership(0.5) == pytest.approx(0.5)
    assert mf.membership(1.0) == 0.0


def test_right_shoulder():
    mf = TriangularMF(0.0, 1.0, 1.0)
    assert mf.membership(2.0) == 1.0
    assert mf.membership(1.0) == 1.0
    assert mf.membership(0.5) == pytest.approx(0.5)


def test_membership_array_matches_scalar():
    mf = TriangularMF(0.0, 0.3, 1.0)
    xs = np.linspace(-0.2, 1.2, 29)
    array = mf.membership_array(xs)
    scalars = np.array([mf.membership(float(x)) for x in xs])
    assert np.allclose(array, scalars)


@given(st.floats(-2.0, 2.0))
def test_membership_in_unit_interval(x):
    mf = TriangularMF(-1.0, 0.0, 1.0)
    assert 0.0 <= mf.membership(x) <= 1.0


def test_degenerate_mf_rejected():
    with pytest.raises(ValueError):
        TriangularMF(1.0, 0.5, 0.0)
    with pytest.raises(ValueError):
        TriangularMF(1.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# variables and rules
# ---------------------------------------------------------------------------


def test_three_level_variable_partitions_range():
    var = three_level_variable("x", 0.0, 10.0)
    for x in np.linspace(0.0, 10.0, 21):
        total = sum(var.fuzzify(float(x)).values())
        assert total > 0.5  # overlapping cover, no dead zones


def test_fuzzify_clamps_out_of_range():
    var = three_level_variable("x", 0.0, 1.0)
    assert var.fuzzify(-1.0)["low"] == 1.0
    assert var.fuzzify(2.0)["high"] == 1.0


def test_rule_validation():
    with pytest.raises(ValueError):
        FuzzyRule({}, ("y", "low"))
    with pytest.raises(ValueError):
        FuzzyRule({"x": "low"}, ("y", "low"), weight=0.0)


# ---------------------------------------------------------------------------
# inference
# ---------------------------------------------------------------------------


def simple_controller():
    x = three_level_variable("x", 0.0, 1.0)
    y = three_level_variable("y", 0.0, 1.0)
    rules = [
        FuzzyRule({"x": "low"}, ("y", "low")),
        FuzzyRule({"x": "medium"}, ("y", "medium")),
        FuzzyRule({"x": "high"}, ("y", "high")),
    ]
    return MamdaniController([x], [y], rules)


def test_identity_like_mapping():
    c = simple_controller()
    assert c.infer({"x": 0.0})["y"] < 0.3
    assert c.infer({"x": 0.5})["y"] == pytest.approx(0.5, abs=0.05)
    assert c.infer({"x": 1.0})["y"] > 0.7


@given(st.floats(0.0, 1.0))
@settings(max_examples=50, deadline=None)
def test_output_always_within_range(x):
    c = simple_controller()
    assert 0.0 <= c.infer({"x": x})["y"] <= 1.0


@given(st.floats(0.0, 0.98))
@settings(max_examples=50, deadline=None)
def test_monotone_rule_base_gives_monotone_output(x):
    c = simple_controller()
    assert c.infer({"x": x + 0.02})["y"] >= c.infer({"x": x})["y"] - 1e-6


def test_multi_antecedent_min_and():
    x = three_level_variable("x", 0.0, 1.0)
    z = three_level_variable("z", 0.0, 1.0)
    y = three_level_variable("y", 0.0, 1.0)
    rules = [FuzzyRule({"x": "high", "z": "high"}, ("y", "high"))]
    c = MamdaniController([x, z], [y], rules)
    # One antecedent at zero membership: the rule does not fire and the
    # output falls back to the range midpoint.
    assert c.infer({"x": 1.0, "z": 0.0})["y"] == pytest.approx(0.5)
    assert c.infer({"x": 1.0, "z": 1.0})["y"] > 0.7


def test_rule_weight_damps_contribution():
    x = three_level_variable("x", 0.0, 1.0)
    y = three_level_variable("y", 0.0, 1.0)
    strong = MamdaniController(
        [x], [y], [FuzzyRule({"x": "high"}, ("y", "high"))]
    )
    weak = MamdaniController(
        [x],
        [y],
        [
            FuzzyRule({"x": "high"}, ("y", "high"), weight=0.2),
            FuzzyRule({"x": "high"}, ("y", "low"), weight=1.0),
        ],
    )
    assert weak.infer({"x": 1.0})["y"] < strong.infer({"x": 1.0})["y"]


def test_missing_input_rejected():
    c = simple_controller()
    with pytest.raises(KeyError):
        c.infer({})


def test_unknown_rule_references_rejected():
    x = three_level_variable("x", 0.0, 1.0)
    y = three_level_variable("y", 0.0, 1.0)
    with pytest.raises(KeyError):
        MamdaniController([x], [y], [FuzzyRule({"zz": "low"}, ("y", "low"))])
    with pytest.raises(KeyError):
        MamdaniController([x], [y], [FuzzyRule({"x": "huge"}, ("y", "low"))])
    with pytest.raises(KeyError):
        MamdaniController([x], [y], [FuzzyRule({"x": "low"}, ("y", "huge"))])


def test_empty_rule_base_rejected():
    x = three_level_variable("x", 0.0, 1.0)
    y = three_level_variable("y", 0.0, 1.0)
    with pytest.raises(ValueError):
        MamdaniController([x], [y], [])


# ---------------------------------------------------------------------------
# batched inference
# ---------------------------------------------------------------------------


def _speed_engine() -> MamdaniController:
    """The controller's speed rule base (two inputs, one output)."""
    from repro.core.controller import FuzzyThermalController

    return FuzzyThermalController()._speed_engine


def test_infer_many_matches_scalar_bitwise():
    """Batched inference must equal the per-point loop bit for bit."""
    engine = _speed_engine()
    rng = np.random.default_rng(11)
    # Random interior points plus every membership breakpoint, out-of-range
    # values (clamping) and dead zones (midpoint fallback).
    utilisation = np.concatenate(
        [rng.uniform(-0.3, 1.3, 40), [0.0, 0.25, 0.5, 0.75, 1.0, -1.0, 2.0]]
    )
    temperature = np.concatenate(
        [rng.uniform(20.0, 100.0, 40), [40.0, 56.0, 64.0, 67.0, 78.0, 80.0, 120.0]]
    )
    batch = engine.infer_many(
        {"utilisation": utilisation, "temperature": temperature}
    )["speed"]
    for k in range(utilisation.size):
        scalar = engine.infer(
            {
                "utilisation": float(utilisation[k]),
                "temperature": float(temperature[k]),
            }
        )["speed"]
        assert batch[k] == scalar


@given(
    x=st.floats(min_value=-0.5, max_value=1.5, allow_nan=False),
    y=st.floats(min_value=-0.5, max_value=1.5, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_infer_many_scalar_property(x, y):
    engine = _speed_engine()
    batch = engine.infer_many(
        {"utilisation": np.array([x]), "temperature": np.array([y * 60.0 + 30.0])}
    )["speed"]
    scalar = engine.infer(
        {"utilisation": x, "temperature": y * 60.0 + 30.0}
    )["speed"]
    assert batch[0] == scalar


def test_infer_many_three_input_engine():
    """The flow rule base exercises rules with 1 and 2 antecedents."""
    from repro.core.controller import FuzzyThermalController

    engine = FuzzyThermalController()._flow_engine
    rng = np.random.default_rng(5)
    values = {
        "temperature": rng.uniform(35.0, 90.0, 32),
        "trend": rng.uniform(-2.0, 2.0, 32),
        "utilisation": rng.uniform(0.0, 1.0, 32),
    }
    batch = engine.infer_many(values)["flow"]
    for k in range(32):
        point = {name: float(vec[k]) for name, vec in values.items()}
        assert batch[k] == engine.infer(point)["flow"]


def test_infer_many_validates_inputs():
    engine = _speed_engine()
    with pytest.raises(KeyError):
        engine.infer_many({"utilisation": np.array([0.5])})
    with pytest.raises(ValueError):
        engine.infer_many(
            {
                "utilisation": np.array([0.5, 0.6]),
                "temperature": np.array([50.0]),
            }
        )


def _textbook_infer(engine: MamdaniController, point: dict) -> dict:
    """Mamdani min-max inference written out rule by rule: min-AND,
    weight, clip each consequent, max-aggregate, centroid."""
    results = {}
    for name, var in engine.outputs.items():
        grid = np.linspace(var.low, var.high, engine.resolution)
        mu = np.zeros_like(grid)
        for rule in engine.rules:
            if rule.consequent[0] != name:
                continue
            strength = min(
                engine.inputs[v].fuzzify(point[v])[term]
                for v, term in rule.antecedents.items()
            ) * rule.weight
            table = var.sets[rule.consequent[1]].membership_array(grid)
            mu = np.maximum(mu, np.minimum(strength, table))
        total = mu.sum()
        results[name] = (
            float((grid * mu).sum() / total) if total > 0.0
            else float(0.5 * (grid[0] + grid[-1]))
        )
    return results


def test_infer_many_matches_textbook_inference_bitwise():
    from repro.core.controller import FuzzyThermalController

    rng = np.random.default_rng(23)
    for engine in (_speed_engine(), FuzzyThermalController()._flow_engine):
        values = {
            name: np.concatenate(
                [
                    rng.uniform(var.low - 0.2 * (var.high - var.low),
                                var.high + 0.2 * (var.high - var.low), 40),
                    [mf.b for mf in var.sets.values()],
                ]
            )
            for name, var in engine.inputs.items()
        }
        size = min(len(v) for v in values.values())
        values = {name: vec[:size] for name, vec in values.items()}
        batch = engine.infer_many(values)
        for k in range(size):
            want = _textbook_infer(
                engine, {name: float(vec[k]) for name, vec in values.items()}
            )
            for name, value in want.items():
                assert batch[name][k] == value


def test_infer_many_empty_batch():
    engine = _speed_engine()
    out = engine.infer_many(
        {"utilisation": np.array([]), "temperature": np.array([])}
    )
    assert out["speed"].shape == (0,)
