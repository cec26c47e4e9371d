"""The run-time management policies compared in Section IV-A.

All four policies run on top of dynamic load balancing (the "_LB"
suffix); what differs is the electronic/mechanical knobs they drive:

===============  =======  ==================  =========================
Policy           Cooling  DVFS                Coolant flow
===============  =======  ==================  =========================
AC_LB            air      none (nominal)      —
AC_TDVFS_LB      air      temperature-        —
                          triggered
LC_LB            liquid   none (nominal)      maximum (worst case)
LC_FUZZY         liquid   fuzzy, per core     fuzzy, run-time varying
===============  =======  ==================  =========================
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, Hashable, List, Mapping, Optional

from .. import constants
from ..geometry.stack import CoolingMode
from ..power.dvfs import NIAGARA_VF_TABLE, VFTable
from .controller import FuzzyThermalController
from .tdvfs import TemperatureTriggeredDVFS


@dataclass(frozen=True)
class PolicyDecision:
    """Actuator commands issued by a policy for one control period.

    Attributes
    ----------
    vf_settings:
        VF table index per core (0 = nominal).
    flow_ml_min:
        Per-cavity coolant flow command [ml/min]; ``None`` for
        air-cooled policies.
    """

    vf_settings: Dict[Hashable, int]
    flow_ml_min: Optional[float] = None


class Policy(ABC):
    """A run-time thermal/energy management policy."""

    #: Display name matching the paper's figure labels.
    name: str = "policy"
    #: Cooling mode this policy requires.
    cooling: CoolingMode = CoolingMode.AIR

    @abstractmethod
    def decide(
        self,
        time: float,
        temperatures_k: Mapping[Hashable, float],
        utilisations: Mapping[Hashable, float],
    ) -> PolicyDecision:
        """Produce actuator commands from the latest observations.

        Lost sensors surface as non-finite (NaN) temperatures; policies
        must degrade gracefully rather than crash on them.
        """

    def observe_flow(self, commanded_ml_min: float, achieved_ml_min: float) -> None:
        """Flow-meter feedback after actuation (graceful degradation).

        Called by the simulator once per control period with the
        clamped flow command and the mean flow actually delivered
        (these differ only under injected pump/cavity faults).  The
        default is a no-op; closed-loop policies may re-plan.
        """

    def reset(self) -> None:
        """Clear internal state between simulation runs."""


class AirLoadBalancing(Policy):
    """AC_LB — air cooling, load balancing only, no throttling."""

    name = "AC_LB"
    cooling = CoolingMode.AIR

    def decide(self, time, temperatures_k, utilisations) -> PolicyDecision:
        return PolicyDecision(
            vf_settings={core: 0 for core in temperatures_k}, flow_ml_min=None
        )


class AirTDVFSLoadBalancing(Policy):
    """AC_TDVFS_LB — air cooling with temperature-triggered DVFS."""

    name = "AC_TDVFS_LB"
    cooling = CoolingMode.AIR

    def __init__(self, vf_table: VFTable = NIAGARA_VF_TABLE) -> None:
        self._tdvfs = TemperatureTriggeredDVFS(vf_table=vf_table)

    def decide(self, time, temperatures_k, utilisations) -> PolicyDecision:
        settings = self._tdvfs.update(time, temperatures_k)
        return PolicyDecision(vf_settings=settings, flow_ml_min=None)

    def reset(self) -> None:
        self._tdvfs.reset()


class LiquidLoadBalancing(Policy):
    """LC_LB — liquid cooling at the worst-case maximum flow rate."""

    name = "LC_LB"
    cooling = CoolingMode.LIQUID

    def __init__(
        self, flow_ml_min: float = constants.FLOW_RATE_MAX_ML_MIN
    ) -> None:
        if flow_ml_min <= 0.0:
            raise ValueError("flow rate must be positive")
        self.flow_ml_min = flow_ml_min

    def decide(self, time, temperatures_k, utilisations) -> PolicyDecision:
        return PolicyDecision(
            vf_settings={core: 0 for core in temperatures_k},
            flow_ml_min=self.flow_ml_min,
        )


class LiquidFuzzy(Policy):
    """LC_FUZZY — the proposed joint flow-rate + DVFS fuzzy controller.

    Parameters
    ----------
    controller:
        Fuzzy controller instance; a default one when omitted.
    flow_control:
        Drive the pump from the fuzzy flow output.  When disabled the
        pump stays at the worst-case maximum (DVFS-only ablation).
    dvfs_control:
        Drive per-core V/F from the fuzzy speed output.  When disabled
        all cores stay at the nominal setting (flow-only ablation).

    The two flags exist for the ablation study of the joint control
    claim ("the joint control of flow rate and DVFS at run-time" is why
    LC_FUZZY wins, Section IV-A); the paper's policy is the default
    joint configuration.
    """

    name = "LC_FUZZY"
    cooling = CoolingMode.LIQUID

    def __init__(
        self,
        controller: Optional[FuzzyThermalController] = None,
        flow_control: bool = True,
        dvfs_control: bool = True,
    ) -> None:
        if not flow_control and not dvfs_control:
            raise ValueError("at least one control knob must stay enabled")
        self.controller = controller or FuzzyThermalController()
        self.flow_control = flow_control
        self.dvfs_control = dvfs_control
        if not flow_control:
            self.name = "LC_FUZZY (DVFS only)"
        elif not dvfs_control:
            self.name = "LC_FUZZY (flow only)"

    def decide(self, time, temperatures_k, utilisations) -> PolicyDecision:
        flow, vf = self.controller.decide(time, temperatures_k, utilisations)
        if not self.flow_control:
            flow = constants.FLOW_RATE_MAX_ML_MIN
        if not self.dvfs_control:
            vf = {core: 0 for core in vf}
        return PolicyDecision(vf_settings=vf, flow_ml_min=flow)

    def observe_flow(self, commanded_ml_min, achieved_ml_min) -> None:
        if self.flow_control:
            self.controller.observe_achieved_flow(
                commanded_ml_min, achieved_ml_min
            )

    def reset(self) -> None:
        self.controller.reset()


def paper_policies() -> List[Policy]:
    """Fresh instances of the four policies of Figs. 6-7."""
    return [
        AirLoadBalancing(),
        AirTDVFSLoadBalancing(),
        LiquidLoadBalancing(),
        LiquidFuzzy(),
    ]
