"""Thermally-aware workload placement."""

import pytest

from repro.design import (
    core_coolness_ranking,
    naive_assignment,
    placement_gain,
    thermal_aware_assignment,
)
from repro.geometry import build_3d_mpsoc
from repro.thermal import CompactThermalModel


@pytest.fixture(scope="module")
def model():
    return CompactThermalModel(build_3d_mpsoc(2), nx=12, ny=10)


def test_ranking_covers_all_cores(model):
    ranking = core_coolness_ranking(model)
    assert len(ranking) == 8
    assert len(set(ranking)) == 8


def test_ranking_is_demand_independent(model):
    a = core_coolness_ranking(model, probe_power=3.0)
    b = core_coolness_ranking(model, probe_power=6.0)
    assert a == b


def test_upstream_cores_run_cooler(model):
    """Coolant flows along +x: the cores nearest the inlet must rank
    cooler than their outlet-side mirror images."""
    ranking = core_coolness_ranking(model)
    position = {ref: i for i, ref in enumerate(ranking)}
    # core0 (x = 0.5 mm) vs core3 (x = 8 mm), same row, same tier.
    assert position[("tier0_die", "core0")] < position[("tier0_die", "core3")]


def test_aware_assignment_puts_heavy_demand_on_cool_slot(model):
    demands = [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    powers = thermal_aware_assignment(model, demands)
    coolest = core_coolness_ranking(model)[0]
    assert powers[coolest] == max(powers.values())


def test_aware_never_worse_than_naive(model):
    for demands in (
        [1.0, 1.0, 0.1, 0.1, 0.1, 0.1, 1.0, 1.0],
        [0.9, 0.1] * 4,
        [0.5] * 8,
    ):
        naive_peak, aware_peak = placement_gain(model, demands)
        assert aware_peak <= naive_peak + 1e-9


def test_skewed_demand_shows_real_gain(model):
    # Two hot threads, six idle cores: placement is worth a measurable
    # fraction of a kelvin even on the small 2-tier stack.
    naive_peak, aware_peak = placement_gain(
        model, [1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    )
    assert naive_peak - aware_peak > 0.1


def test_uniform_demand_is_placement_invariant(model):
    naive_peak, aware_peak = placement_gain(model, [0.6] * 8)
    assert aware_peak == pytest.approx(naive_peak, abs=1e-6)


def test_total_power_preserved(model):
    demands = [0.9, 0.3, 0.7, 0.1, 0.5, 0.2, 0.8, 0.4]
    naive = naive_assignment(model, demands)
    aware = thermal_aware_assignment(model, demands)
    assert sum(aware.values()) == pytest.approx(sum(naive.values()))


def test_validation(model):
    with pytest.raises(ValueError):
        thermal_aware_assignment(model, [0.5] * 9)
    with pytest.raises(ValueError):
        thermal_aware_assignment(model, [1.5])
    with pytest.raises(ValueError):
        naive_assignment(model, [-0.1])
    with pytest.raises(ValueError):
        core_coolness_ranking(model, probe_power=0.0)


def test_four_tier_ranking_on_the_grid_model():
    """The 4-tier stack, where slot geography matters most.

    Block peaks at 12x10 put the inlet-side tier-0 slots (core0/core4,
    38.39 degC under the 5 W probe) ahead of the second-column tier-2
    slots (core9/core13, 39.45 degC).
    """
    model = CompactThermalModel(build_3d_mpsoc(4), nx=12, ny=10)
    ranking = core_coolness_ranking(model)
    assert len(ranking) == 16
    assert len(set(ranking)) == 16
    position = {ref: i for i, ref in enumerate(ranking)}
    for ahead in (("tier0_die", "core0"), ("tier0_die", "core4")):
        for behind in (("tier2_die", "core9"), ("tier2_die", "core13")):
            assert position[ahead] < position[behind]
    for demands in (
        [1.0, 1.0, 0.1, 0.1] * 4,
        [0.9, 0.1] * 8,
        [0.2, 0.4, 0.6, 0.8] * 4,
        [0.5] * 16,
    ):
        naive_peak, aware_peak = placement_gain(model, demands)
        assert aware_peak <= naive_peak + 1e-9
    # Two full-load threads on 14 idle cores: 2.83 K at 12x10.
    naive_peak, aware_peak = placement_gain(model, [1.0, 1.0] + [0.0] * 14)
    assert naive_peak - aware_peak > 1.0


def test_four_tier_ranking_does_not_move_with_the_grid():
    """Block peaks rank the 4-tier slots alike on the coarse grid and
    at four times its resolution; block means do not."""
    stack = build_3d_mpsoc(4)
    coarse = core_coolness_ranking(CompactThermalModel(stack, nx=12, ny=10))
    fine = core_coolness_ranking(CompactThermalModel(stack, nx=46, ny=40))
    assert coarse == fine
