"""Electro-thermal cavity co-design (Section II-C).

Given the stack, its power scenario and a junction-temperature limit,
pick the micro-channel width and operating flow rate that satisfy the
limit at minimal *pumping* power.  The trade-off is real in both
directions:

* narrow channels transfer heat better (smaller hydraulic diameter)
  but cost pressure drop quadratically;
* wide channels are cheap to pump but may need more flow — or fail the
  limit outright — because their film resistance is higher.

The designer sweeps a discrete width set (the maximum width is bounded
by the TSV spacing, Section II-C), bisects the minimum admissible flow
per width with :func:`repro.design.explorer.minimum_flow_for_limit`,
prices each feasible point by its hydraulic pumping power, and returns
the cheapest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence

from .. import constants
from ..geometry.channels import MicroChannelGeometry
from ..geometry.stack import build_3d_mpsoc, CoolingMode
from ..geometry.tsv import TSVArray
from ..hydraulics.friction import channel_pressure_drop, pumping_power
from ..materials.fluids import Liquid, WATER
from ..thermal.model import BlockRef, CompactThermalModel
from ..units import ml_per_min_to_m3_per_s
from .explorer import minimum_flow_for_limit


@dataclass(frozen=True)
class CavityDesignPoint:
    """One feasible cavity design.

    Attributes
    ----------
    channel_width:
        Channel width [m].
    flow_ml_min:
        Minimum admissible per-cavity flow [ml/min].
    peak_k:
        Steady peak temperature at that flow [K].
    pressure_drop_pa:
        Cavity pressure drop at that flow [Pa].
    pumping_power_w:
        Hydraulic pumping power (dp * Q, summed over cavities) [W].
    """

    channel_width: float
    flow_ml_min: float
    peak_k: float
    pressure_drop_pa: float
    pumping_power_w: float


def codesign_cavity(
    tiers: int,
    block_powers_of: Mapping[BlockRef, float] = None,
    *,
    limit_k: float,
    widths: Optional[Sequence[float]] = None,
    tsv: Optional[TSVArray] = None,
    coolant: Liquid = WATER,
    core_power: float = 5.0,
    cache_power: float = 1.5,
    nx: int = 12,
    ny: int = 10,
) -> List[CavityDesignPoint]:
    """Sweep cavity widths, returning feasible designs cheapest-first.

    Parameters
    ----------
    tiers:
        Stack size (2 or 4).
    block_powers_of:
        Explicit block powers; when omitted, ``core_power`` /
        ``cache_power`` are applied to every core / cache block.
    limit_k:
        Junction-temperature limit [K].
    widths:
        Candidate channel widths [m]; defaults to 30-90 um in 20 um
        steps, filtered by the TSV constraint when ``tsv`` is given.
    tsv:
        TSV array bounding the maximum channel width (Section II-C:
        "the maximal channel width, given by the TSV spacing").
    coolant:
        Cavity liquid.
    nx, ny:
        Grid resolution of the evaluation model.

    Returns
    -------
    list of CavityDesignPoint
        Feasible designs sorted by pumping power (cheapest first);
        empty if no candidate satisfies the limit.
    """
    if widths is None:
        widths = (30e-6, 50e-6, 70e-6, 90e-6)
    if tsv is not None:
        widths = [w for w in widths if tsv.allows_channel(w)]
        if not widths:
            raise ValueError("no candidate width fits between the TSVs")

    results: List[CavityDesignPoint] = []
    for width in widths:
        geometry = MicroChannelGeometry(
            width=width,
            height=constants.INTERTIER_THICKNESS,
            pitch=constants.CHANNEL_PITCH,
            length=11.5e-3,
            span=10e-3,
        )
        stack = build_3d_mpsoc(
            tiers,
            CoolingMode.LIQUID,
            coolant=coolant,
            channel_geometry=geometry,
        )
        if block_powers_of is None:
            powers = {}
            for layer, block in stack.iter_blocks():
                if block.kind == "core":
                    powers[(layer.name, block.name)] = core_power
                elif block.kind == "cache":
                    powers[(layer.name, block.name)] = cache_power
        else:
            powers = dict(block_powers_of)
        model = CompactThermalModel(stack, nx=nx, ny=ny)
        try:
            flow = minimum_flow_for_limit(model, powers, limit_k)
        except ValueError:
            continue  # this width cannot meet the limit
        peak = model.steady_state(powers, flow_ml_min=flow).max()
        volumetric = ml_per_min_to_m3_per_s(flow)
        dp = channel_pressure_drop(geometry, volumetric, coolant)
        pump_w = pumping_power(dp, volumetric) * stack.cavity_count
        results.append(
            CavityDesignPoint(
                channel_width=width,
                flow_ml_min=flow,
                peak_k=peak,
                pressure_drop_pa=dp,
                pumping_power_w=pump_w,
            )
        )
    return sorted(results, key=lambda point: point.pumping_power_w)
