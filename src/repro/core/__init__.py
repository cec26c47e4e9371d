"""The paper's contribution: run-time thermally-aware management.

Energy-efficient run-time thermal control for 3D MPSoCs with inter-tier
liquid cooling: a fuzzy controller that jointly tunes the coolant flow
rate and per-core DVFS (LC_FUZZY, [15]), the comparison policies of
Section IV-A, and the closed-loop system simulator that couples
workload, scheduling, power, thermal and cooling models.
"""

from .fuzzy import TriangularMF, FuzzyVariable, FuzzyRule, MamdaniController
from .tdvfs import TemperatureTriggeredDVFS
from .controller import FuzzyThermalController
from .policies import (
    Policy,
    PolicyDecision,
    AirLoadBalancing,
    AirTDVFSLoadBalancing,
    LiquidLoadBalancing,
    LiquidFuzzy,
    paper_policies,
)
from .energy import EnergyAccount
from .hotspots import HotSpotStats
from .simulator import SystemSimulator, SimulationResult

__all__ = [
    "TriangularMF",
    "FuzzyVariable",
    "FuzzyRule",
    "MamdaniController",
    "TemperatureTriggeredDVFS",
    "FuzzyThermalController",
    "Policy",
    "PolicyDecision",
    "AirLoadBalancing",
    "AirTDVFSLoadBalancing",
    "LiquidLoadBalancing",
    "LiquidFuzzy",
    "paper_policies",
    "EnergyAccount",
    "HotSpotStats",
    "SystemSimulator",
    "SimulationResult",
]
