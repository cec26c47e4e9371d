"""repro — thermally-aware design of 3D MPSoCs with inter-tier cooling.

A full Python reproduction of Sabry et al., "Towards Thermally-Aware
Design of 3D MPSoCs with Inter-Tier Cooling" (DATE 2011): compact
thermal modelling of 3D stacks with micro-channel liquid cooling
(3D-ICE-style), single- and two-phase cooling technology models, and the
run-time fuzzy flow-rate + DVFS management policies of the CMOSAIC
project.

Quickstart (declarative)::

    from repro import Scenario, run_scenario

    scenario = Scenario.load("examples/specs/two_tier_fuzzy.json")
    result = run_scenario(scenario)
    print(result.peak_temperature_c, result.total_energy_j)

or hand-wired::

    from repro import build_3d_mpsoc, SystemSimulator, LiquidFuzzy
    from repro.workload import database_trace

    stack = build_3d_mpsoc(tiers=2)
    result = SystemSimulator(stack, LiquidFuzzy(), database_trace()).run()
"""

__version__ = "1.0.0"

from .core import (
    AirLoadBalancing,
    AirTDVFSLoadBalancing,
    FuzzyThermalController,
    LiquidFuzzy,
    LiquidLoadBalancing,
    SimulationResult,
    SystemSimulator,
    paper_policies,
)
from .geometry import CoolingMode, StackDesign, build_3d_mpsoc
from .hydraulics import TABLE_I_PUMP, PumpModel
from .power import NIAGARA_VF_TABLE, PowerModel
from .scenario import ResultCache, Runner, Scenario, run_scenario
from .thermal import CompactThermalModel, TemperatureSensors, TransientStepper

__all__ = [
    "build_3d_mpsoc",
    "CoolingMode",
    "StackDesign",
    "CompactThermalModel",
    "TransientStepper",
    "TemperatureSensors",
    "PowerModel",
    "NIAGARA_VF_TABLE",
    "PumpModel",
    "TABLE_I_PUMP",
    "SystemSimulator",
    "SimulationResult",
    "FuzzyThermalController",
    "AirLoadBalancing",
    "AirTDVFSLoadBalancing",
    "LiquidLoadBalancing",
    "LiquidFuzzy",
    "paper_policies",
    "ResultCache",
    "Runner",
    "Scenario",
    "run_scenario",
    "__version__",
]
