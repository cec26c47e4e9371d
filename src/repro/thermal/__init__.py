"""Compact transient thermal model of 3D stacks with inter-tier cooling.

A Python reimplementation of the modelling approach of 3D-ICE [17]
(Sridhar et al., ICCAD 2010): finite-volume RC networks for the solid
layers plus advective fluid cells for the micro-channel cavities, solved
with sparse direct methods.
"""

from .grid import ThermalGrid
from .field import BlockReduction, TemperatureField
from .assembly import ConductanceBuilder
from .diagnostics import (
    CoolingDryoutError,
    FactorizationError,
    IterativeConvergenceError,
    NonFiniteFieldError,
    SolverDiagnostics,
    SolverGuard,
    SolverStats,
    ThermalInputError,
    ThermalSolveError,
    TransientDivergenceError,
)
from .krylov import (
    DIRECT_NODE_LIMIT,
    KrylovOptions,
    KrylovSolver,
    choose_backend,
)
from .model import CacheInfo, CompactThermalModel, SPLU_OPTIONS
from .solver import TransientStepper
from .sensors import TemperatureSensors
from .reference import dense_steady_state

__all__ = [
    "ThermalGrid",
    "BlockReduction",
    "TemperatureField",
    "ConductanceBuilder",
    "CacheInfo",
    "CompactThermalModel",
    "SPLU_OPTIONS",
    "SolverDiagnostics",
    "SolverGuard",
    "SolverStats",
    "ThermalSolveError",
    "ThermalInputError",
    "CoolingDryoutError",
    "FactorizationError",
    "IterativeConvergenceError",
    "NonFiniteFieldError",
    "TransientDivergenceError",
    "DIRECT_NODE_LIMIT",
    "KrylovOptions",
    "KrylovSolver",
    "choose_backend",
    "TransientStepper",
    "TemperatureSensors",
    "dense_steady_state",
]
