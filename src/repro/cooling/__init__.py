"""Pluggable cooling-backend layer (air / single-phase / two-phase)."""

from .backends import (
    BACKENDS,
    TWO_PHASE_ANCHOR_W_PER_K,
    AirSinkBackend,
    CoolingBackend,
    CoolingConfig,
    FluidCoupling,
    HydraulicState,
    SinglePhaseLiquidBackend,
    TwoPhaseBackend,
    backend_for_cavity,
    backend_names,
    register_backend,
)

__all__ = [
    "BACKENDS",
    "TWO_PHASE_ANCHOR_W_PER_K",
    "AirSinkBackend",
    "CoolingBackend",
    "CoolingConfig",
    "FluidCoupling",
    "HydraulicState",
    "SinglePhaseLiquidBackend",
    "TwoPhaseBackend",
    "backend_for_cavity",
    "backend_names",
    "register_backend",
]
