"""Thermally-aware workload placement.

Dynamic load balancing (:mod:`repro.sched.loadbalance`) equalises queue
*lengths*; it is thermally blind.  With inter-tier liquid cooling the
die is not thermally homogeneous — cores near the coolant inlet run
cooler than cores near the outlet, and (in multi-tier stacks) cores on
well-sandwiched tiers run cooler than cores at the stack faces.  A
thermally-aware placer exploits this: put the heaviest threads on the
coolest core slots.

:func:`thermal_aware_assignment` solves the resulting assignment
problem greedily with the compact grid model
(:class:`~repro.thermal.model.CompactThermalModel`) as its oracle: slots
rank by their block-peak steady temperature under a uniform probe.  The
:func:`placement_gain` helper quantifies the peak-temperature advantage
over naive (queue-only) balancing for a given demand vector.  A coarse
grid (12x10 cells) keeps each evaluation within milliseconds.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..geometry.stack import StackDesign
from ..thermal.model import BlockRef, CompactThermalModel


def _core_refs(stack: StackDesign) -> List[BlockRef]:
    return [
        (layer.name, block.name)
        for layer, block in stack.iter_blocks()
        if block.kind == "core"
    ]


def core_coolness_ranking(
    model: CompactThermalModel, probe_power: float = 5.0
) -> List[BlockRef]:
    """Core slots ordered from coolest to hottest.

    Probes the stack with uniform power and ranks slots by their
    block-peak steady temperature — a pure function of geometry, cavity
    layout and flow direction, independent of the workload.  Peaks,
    not block means, because the placer fights hot spots, and on the
    4-tier stack the block-mean order moves with the grid resolution
    where the block-peak order does not.
    """
    if probe_power <= 0.0:
        raise ValueError("probe power must be positive")
    refs = _core_refs(model.stack)
    field = model.steady_state({ref: probe_power for ref in refs})
    temps = field.block_temperatures(model.block_masks(), reduce="max")
    # Normalise and round so that symmetric slots (equal up to float
    # noise) order deterministically by name regardless of probe power.
    t_min = min(temps.values())
    t_max = max(temps.values())
    span = (t_max - t_min) or 1.0
    return sorted(
        refs,
        key=lambda ref: (round((temps[ref] - t_min) / span, 9), ref),
    )


def thermal_aware_assignment(
    model: CompactThermalModel,
    core_demands: Sequence[float],
    idle_power: float = 1.5,
    active_power: float = 3.5,
) -> Dict[BlockRef, float]:
    """Assign per-core demands to core slots, hottest demand coolest slot.

    Parameters
    ----------
    model:
        Compact thermal model of the stack.
    core_demands:
        One offered load per core (any order); must not exceed the
        number of core slots.
    idle_power, active_power:
        Two-state power model used to convert demand to block power.

    Returns
    -------
    dict
        Block power per core slot under the thermally-aware placement.
    """
    refs = _core_refs(model.stack)
    if len(core_demands) > len(refs):
        raise ValueError("more demands than core slots")
    demands = sorted((float(d) for d in core_demands), reverse=True)
    if demands and (demands[-1] < 0.0 or demands[0] > 1.0):
        raise ValueError("demands must lie in [0, 1]")
    ranking = core_coolness_ranking(model)
    powers = {ref: idle_power for ref in refs}
    for demand, ref in zip(demands, ranking):
        powers[ref] = idle_power + active_power * demand
    return powers


def naive_assignment(
    model: CompactThermalModel,
    core_demands: Sequence[float],
    idle_power: float = 1.5,
    active_power: float = 3.5,
) -> Dict[BlockRef, float]:
    """Slot-order placement (what a thermally blind balancer produces)."""
    refs = _core_refs(model.stack)
    if len(core_demands) > len(refs):
        raise ValueError("more demands than core slots")
    powers = {ref: idle_power for ref in refs}
    for demand, ref in zip(core_demands, refs):
        if not 0.0 <= float(demand) <= 1.0:
            raise ValueError("demands must lie in [0, 1]")
        powers[ref] = idle_power + active_power * float(demand)
    return powers


def placement_gain(
    model: CompactThermalModel, core_demands: Sequence[float]
) -> Tuple[float, float]:
    """Peak temperatures of naive vs thermally-aware placement [K].

    Returns ``(naive_peak, aware_peak)``; the difference is the benefit
    of knowing the stack's thermal geography.
    """
    naive = naive_assignment(model, core_demands)
    aware = thermal_aware_assignment(model, core_demands)
    return model.steady_state(naive).max(), model.steady_state(aware).max()
