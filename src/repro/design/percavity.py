"""Per-cavity flow allocation (extension beyond the paper's shared pump).

Section II-A fixes one pump setting for every cavity ("the liquid flow
rate provided by the pump can be dynamically altered at runtime" — one
rate for all).  In a 4-tier stack the three cavities see very different
heat loads: the cavity between two cache tiers idles while the cavities
flanking core tiers work hard.  With per-cavity valves, lightly loaded
cavities can run near the minimum flow while the limit is enforced by
the hot ones.

:func:`allocate_cavity_flows` finds such an allocation with a greedy
descent: starting from the uniform minimum-flow solution, repeatedly
*reduce* the flow of the cavity whose reduction keeps the temperature
limit satisfied, one quantisation step at a time, until no cavity can
be reduced further.  The pumping saving versus the uniform solution is
quantified by :func:`percavity_saving`.
"""

from __future__ import annotations

from typing import Dict, Mapping, Tuple

from .. import constants
from ..hydraulics.pump import PumpModel, TABLE_I_PUMP
from ..thermal.model import BlockRef, CompactThermalModel
from .explorer import minimum_flow_for_limit


def _peak(model: CompactThermalModel, powers: Mapping[BlockRef, float]) -> float:
    return model.steady_state(dict(powers)).max()


def allocate_cavity_flows(
    model: CompactThermalModel,
    block_powers: Mapping[BlockRef, float],
    limit_k: float,
    *,
    step_ml_min: float = 2.0,
    flow_min: float = constants.FLOW_RATE_MIN_ML_MIN,
    flow_max: float = constants.FLOW_RATE_MAX_ML_MIN,
) -> Dict[str, float]:
    """Greedy per-cavity flow allocation meeting a temperature limit.

    Parameters
    ----------
    model:
        Liquid-cooled stack model (its flow state is mutated and left at
        the returned allocation).
    block_powers:
        Steady power scenario.
    limit_k:
        Junction-temperature limit [K].
    step_ml_min:
        Flow quantisation step of the valve network [ml/min].
    flow_min, flow_max:
        Valve range per cavity [ml/min].

    Returns
    -------
    dict
        Flow per cavity name [ml/min].
    """
    if step_ml_min <= 0.0:
        raise ValueError("step must be positive")
    uniform = minimum_flow_for_limit(
        model, block_powers, limit_k, flow_min=flow_min, flow_max=flow_max
    )
    model.set_flow(uniform)
    flows = dict(model.cavity_flows)
    improved = True
    while improved:
        improved = False
        for name in sorted(flows):
            candidate = flows[name] - step_ml_min
            if candidate < flow_min:
                continue
            model.set_cavity_flow(name, candidate)
            if _peak(model, block_powers) <= limit_k:
                flows[name] = candidate
                improved = True
            else:
                model.set_cavity_flow(name, flows[name])
    return flows


def percavity_saving(
    model: CompactThermalModel,
    block_powers: Mapping[BlockRef, float],
    limit_k: float,
    pump: PumpModel = TABLE_I_PUMP,
    **kwargs,
) -> Tuple[Dict[str, float], float, float]:
    """Pumping power of per-cavity vs uniform flow control.

    Returns ``(flows, uniform_w, percavity_w)`` where the powers are the
    pumping-network consumption of the uniform minimum-flow solution and
    of the greedy per-cavity allocation, both meeting ``limit_k``.
    """
    uniform = minimum_flow_for_limit(model, block_powers, limit_k)
    uniform_w = pump.power(uniform, model.stack.cavity_count)
    flows = allocate_cavity_flows(model, block_powers, limit_k, **kwargs)
    percavity_w = sum(pump.power(flow, 1) for flow in flows.values())
    return flows, uniform_w, percavity_w
