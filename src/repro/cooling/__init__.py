"""Pluggable cooling-backend layer (air / single-phase / two-phase)."""

from .backends import (
    TWO_PHASE_ANCHOR_W_PER_K,
    CoolingBackend,
    CoolingConfig,
    FluidCoupling,
    HydraulicState,
    SinglePhaseLiquidBackend,
    TwoPhaseBackend,
    backend_for_cavity,
)

__all__ = [
    "TWO_PHASE_ANCHOR_W_PER_K",
    "CoolingBackend",
    "CoolingConfig",
    "FluidCoupling",
    "HydraulicState",
    "SinglePhaseLiquidBackend",
    "TwoPhaseBackend",
    "backend_for_cavity",
]
