"""Block-level power model of the UltraSPARC-T1-based 3D MPSoC.

Section IV-A's recipe, reimplemented:

* Per-thread utilisation percentages (from the workload traces) determine
  each core's active fraction; "the instantaneous dynamic power
  consumption is equal to the average power at each state (active,
  idle)" — a two-state dynamic model, ``P_dyn = P_idle + u * P_active``,
  scaled by the DVFS factor ``(f/f0)(V/V0)^2``.
* Leakage is "a function of area and temperature"
  (:mod:`repro.power.leakage`), scaled by ``V/V0``.
* Caches and the crossbar/IO fabric follow the average core utilisation
  of the stack (memory traffic tracks compute activity).

The dynamic power densities below were calibrated once (DESIGN.md
section 7) so the full stack dissipates ~55-60 W at high utilisation —
the paper's "overall energy consumption of a 2-tier 3D MPSoC" of ~70 W
including the pumping network — which lands the air-cooled 2-tier peak
at the reported 87 degC and the liquid-cooled peak at 56 degC.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from ..geometry.floorplan import CACHE, CORE, OTHER
from ..geometry.stack import StackDesign
from ..units import celsius_to_kelvin
from .dvfs import NIAGARA_VF_TABLE, VFTable
from .leakage import CACHE_LEAKAGE, CORE_LEAKAGE, OTHER_LEAKAGE, LeakageModel

BlockRef = Tuple[str, str]

DEFAULT_TEMPERATURE_K = celsius_to_kelvin(60.0)
"""Block temperature assumed when no thermal feedback is supplied."""


@dataclass(frozen=True)
class KindParameters:
    """Power parameters of one block kind.

    Attributes
    ----------
    idle_density:
        Dynamic power density when idle [W/m^2].
    active_density:
        Additional dynamic power density at 100 % utilisation [W/m^2].
    leakage:
        Leakage model of the kind.
    """

    idle_density: float
    active_density: float
    leakage: LeakageModel

    def __post_init__(self) -> None:
        if self.idle_density < 0.0 or self.active_density < 0.0:
            raise ValueError("power densities must be non-negative")


DEFAULT_KIND_PARAMETERS: Dict[str, KindParameters] = {
    # 10 mm^2 core: 0.7 W idle + 3.5 W active + ~0.8 W leakage at 85 degC.
    CORE: KindParameters(0.7 / 10e-6, 3.5 / 10e-6, CORE_LEAKAGE),
    # 19 mm^2 L2 bank: 0.2 W idle + 0.7 W at full traffic + 0.6 W leakage.
    CACHE: KindParameters(0.2 / 19e-6, 0.7 / 19e-6, CACHE_LEAKAGE),
    # Crossbar/IO fabric: 2 W idle + 4 W at full traffic per 35 mm^2.
    OTHER: KindParameters(2.0 / 35e-6, 4.0 / 35e-6, OTHER_LEAKAGE),
}


@dataclass(frozen=True)
class PowerBreakdown:
    """Chip power split into its two components.

    Attributes
    ----------
    dynamic:
        Total dynamic power [W].
    leakage:
        Total leakage power [W].
    """

    dynamic: float
    leakage: float

    @property
    def total(self) -> float:
        """Total chip power [W]."""
        return self.dynamic + self.leakage


class PowerModel:
    """Computes per-block powers from utilisation, DVFS state and
    temperature.

    Parameters
    ----------
    stack:
        The stack whose blocks are powered.
    vf_table:
        DVFS operating points shared by all cores.
    kind_parameters:
        Power parameters per block kind; defaults to the calibrated
        90 nm UltraSPARC T1 values.
    """

    def __init__(
        self,
        stack: StackDesign,
        vf_table: VFTable = NIAGARA_VF_TABLE,
        kind_parameters: Optional[Dict[str, KindParameters]] = None,
    ) -> None:
        self.stack = stack
        self.vf_table = vf_table
        self.kind_parameters = dict(kind_parameters or DEFAULT_KIND_PARAMETERS)
        self.core_refs: list[BlockRef] = []
        self._blocks: Dict[BlockRef, Tuple[str, float]] = {}
        for layer, block in stack.iter_blocks():
            ref = (layer.name, block.name)
            self._blocks[ref] = (block.kind, block.area)
            if block.kind == CORE:
                self.core_refs.append(ref)
        if not self.core_refs:
            raise ValueError("the stack has no cores to power")
        # What a step needs of each block, in block order, so the loop
        # in _per_block does no parameter lookups: (ref, is core, idle
        # and active density, area, leakage law).
        self._constants = []
        for ref, (kind, area) in self._blocks.items():
            params = self.kind_parameters[kind]
            self._constants.append((
                ref, kind == CORE, params.idle_density, params.active_density,
                area, params.leakage.block_law(area),
            ))
        self._vf_scales = {
            i: (vf_table.dynamic_scale(i), vf_table.leakage_scale(i))
            for i in range(len(vf_table))
        }

    # ------------------------------------------------------------------

    def _check_core_inputs(self, mapping: Mapping[BlockRef, float], what: str) -> None:
        missing = [ref for ref in self.core_refs if ref not in mapping]
        if missing:
            raise KeyError(f"{what} missing for cores {missing}")

    def core_dynamic_power(self, utilisation: float, vf_index: int) -> float:
        """Dynamic power of one core at a given utilisation and setting [W]."""
        if not 0.0 <= utilisation <= 1.0:
            raise ValueError("utilisation must be in [0, 1]")
        params = self.kind_parameters[CORE]
        area = self._blocks[self.core_refs[0]][1]
        scale = self.vf_table.dynamic_scale(vf_index)
        return (params.idle_density + utilisation * params.active_density) * area * scale

    def _per_block(
        self,
        core_utilisation: Mapping[BlockRef, float],
        vf_settings: Mapping[BlockRef, int],
        block_temperatures: Mapping[BlockRef, float],
    ) -> Tuple[List[float], List[float]]:
        """Per-block dynamic and leakage powers [W], in block order."""
        self._check_core_inputs(core_utilisation, "utilisation")
        mean_util = sum(core_utilisation[ref] for ref in self.core_refs) / len(
            self.core_refs
        )
        clamp = self.vf_table.clamp
        vf_scales = self._vf_scales
        temperature = block_temperatures.get
        dynamic: List[float] = []
        leakage: List[float] = []
        for ref, core, idle, active, area, leakage_law in self._constants:
            temp = temperature(ref, DEFAULT_TEMPERATURE_K)
            if core:
                util = core_utilisation[ref]
                if not 0.0 <= util <= 1.0:
                    raise ValueError(f"utilisation of {ref} must be in [0, 1]")
                vf = vf_settings.get(ref, 0)
                # An in-range setting is a key; VFTable.clamp maps the rest.
                dyn_scale, leak_scale = vf_scales.get(vf) or vf_scales[clamp(vf)]
                dynamic.append((idle + util * active) * area * dyn_scale)
            else:
                # Shared resources track mean core activity and stay at
                # nominal voltage (the paper applies DVFS to cores).
                leak_scale = 1.0
                dynamic.append((idle + mean_util * active) * area)
            leakage.append(leakage_law(temp, leak_scale))
        return dynamic, leakage

    def block_powers(
        self,
        core_utilisation: Mapping[BlockRef, float],
        vf_settings: Optional[Mapping[BlockRef, int]] = None,
        block_temperatures: Optional[Mapping[BlockRef, float]] = None,
    ) -> Dict[BlockRef, float]:
        """Per-block power for one control interval [W].

        Parameters
        ----------
        core_utilisation:
            Utilisation in [0, 1] per core block.
        vf_settings:
            DVFS setting index per core block; nominal when omitted.
        block_temperatures:
            Temperature feedback per block [K] for the leakage term
            (typically the previous-step thermal solution); a uniform
            default is used for blocks without an entry.
        """
        dynamic, leakage = self._per_block(
            core_utilisation, vf_settings or {}, block_temperatures or {}
        )
        return dict(zip(self._blocks, map(operator.add, dynamic, leakage)))

    def breakdown(
        self,
        core_utilisation: Mapping[BlockRef, float],
        vf_settings: Optional[Mapping[BlockRef, int]] = None,
        block_temperatures: Optional[Mapping[BlockRef, float]] = None,
    ) -> PowerBreakdown:
        """Chip-level dynamic/leakage split for one interval."""
        dynamic, leakage = self._per_block(
            core_utilisation, vf_settings or {}, block_temperatures or {}
        )
        return PowerBreakdown(dynamic=sum(dynamic), leakage=sum(leakage))
