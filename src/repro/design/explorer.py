"""Design-space exploration sweeps.

These helpers answer the design-time questions of Section II at
exploration speed, with the compact grid model as the evaluation
engine; a coarse grid keeps each evaluation cheap.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .. import constants
from ..geometry.stack import CoolingMode, build_3d_mpsoc
from ..thermal.model import BlockRef, CompactThermalModel


def flow_sweep(
    model: CompactThermalModel,
    block_powers: Mapping[BlockRef, float],
    flows_ml_min: Sequence[float],
) -> List[Tuple[float, float]]:
    """Peak steady temperature as a function of the cavity flow rate.

    Returns ``(flow, peak_k)`` pairs; the curve's knee tells the
    designer how much pump headroom a workload leaves.
    """
    if model.stack.cooling_mode is not CoolingMode.LIQUID:
        raise ValueError("flow sweeps require a liquid-cooled stack")
    results = []
    for flow in flows_ml_min:
        field = model.steady_state(dict(block_powers), flow_ml_min=flow)
        results.append((float(flow), field.max()))
    return results


def minimum_flow_for_limit(
    model: CompactThermalModel,
    block_powers: Mapping[BlockRef, float],
    limit_k: float,
    flow_min: float = constants.FLOW_RATE_MIN_ML_MIN,
    flow_max: float = constants.FLOW_RATE_MAX_ML_MIN,
    tolerance: float = 0.05,
) -> float:
    """Smallest flow keeping the steady peak below a limit [ml/min].

    Bisection on the steady model; raises ``ValueError`` if even the
    maximum flow misses the limit.
    """
    peak_at_max = model.steady_state(dict(block_powers), flow_ml_min=flow_max).max()
    if peak_at_max > limit_k:
        raise ValueError(
            f"limit unreachable: peak {peak_at_max:.1f} K at maximum flow"
        )
    if model.steady_state(dict(block_powers), flow_ml_min=flow_min).max() <= limit_k:
        return flow_min
    lo, hi = flow_min, flow_max
    while hi - lo > tolerance:
        mid = 0.5 * (lo + hi)
        if model.steady_state(dict(block_powers), flow_ml_min=mid).max() <= limit_k:
            hi = mid
        else:
            lo = mid
    return hi


def tier_ordering_study(
    tiers: int = 4,
    core_power: float = 5.0,
    cache_power: float = 1.5,
    cooling: CoolingMode = CoolingMode.LIQUID,
    patterns: Optional[Sequence[str]] = None,
    nx: int = 12,
    ny: int = 10,
) -> Dict[str, float]:
    """Steady peak temperature of every tier-ordering pattern [K].

    Which tier should carry the cores?  Section II-A places logic and
    memory on separate tiers for performance; this study quantifies the
    *thermal* side of the ordering choice (e.g. ``"cmmc"`` keeps the hot
    core tiers next to the stack's best-cooled faces).
    """
    if patterns is None:
        half = tiers // 2
        patterns = sorted(
            {
                "".join(p)
                for p in _permutations_of("c" * half + "m" * half)
            }
        )
    results: Dict[str, float] = {}
    for pattern in patterns:
        stack = build_3d_mpsoc(tiers, cooling, tier_pattern=pattern)
        model = CompactThermalModel(stack, nx=nx, ny=ny)
        powers = {}
        for layer, block in stack.iter_blocks():
            if block.kind == "core":
                powers[(layer.name, block.name)] = core_power
            elif block.kind == "cache":
                powers[(layer.name, block.name)] = cache_power
        results[pattern] = float(model.steady_state(powers).max())
    return results


def _permutations_of(symbols: str):
    from itertools import permutations

    return permutations(symbols)
