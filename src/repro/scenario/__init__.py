"""Declarative experiment layer: Scenario specs, the Runner, result cache.

One spec format — a frozen, JSON-round-trippable :class:`Scenario`
dataclass tree — describes every closed-loop experiment of the paper
(stack geometry, cavity config, workload, policy, solver backend,
faults, horizon).  :class:`Runner` executes a spec bit-for-bit
identically to the legacy hand-wired ``SystemSimulator`` path, and the
scenario content hash keys both the on-disk :class:`ResultCache` and
the shared fan-out model cache.
"""

from .cache import CACHE_DIR_ENV, ResultCache, default_cache_root
from .runner import (
    Runner,
    build_faults,
    build_model,
    build_policy,
    build_simulator,
    build_stack,
    build_trace,
    run_scenario,
    simulator_kwargs,
)
from .spec import (
    SCHEMA_VERSION,
    ChannelSpec,
    ControlSpec,
    CoolingSpec,
    FaultSpec,
    FlowFaultSpec,
    PolicySpec,
    Scenario,
    ScenarioError,
    SensorFaultSpec,
    SolverSpec,
    StackSpec,
    WorkloadSpec,
)

__all__ = [
    "CACHE_DIR_ENV",
    "SCHEMA_VERSION",
    "ChannelSpec",
    "ControlSpec",
    "CoolingSpec",
    "FaultSpec",
    "FlowFaultSpec",
    "PolicySpec",
    "ResultCache",
    "Runner",
    "Scenario",
    "ScenarioError",
    "SensorFaultSpec",
    "SolverSpec",
    "StackSpec",
    "WorkloadSpec",
    "build_faults",
    "build_model",
    "build_policy",
    "build_simulator",
    "build_stack",
    "build_trace",
    "default_cache_root",
    "run_scenario",
    "simulator_kwargs",
]
