"""Temperature-dependent leakage power.

Section IV-A: "We compute the leakage power of processing cores as a
function of their area and the temperature."  The standard compact form
is an exponential in temperature around a reference point:

``P_leak(T) = density * area * V/V0 * exp(beta (T - T_ref))``

where ``density`` [W/m^2] is the leakage power density at the reference
temperature and nominal voltage.  The defaults are calibrated for the
90 nm node so that a 10 mm^2 core leaks ~0.8 W at the 85 degC threshold
(roughly 15 % of its total power, consistent with 90 nm-era budgets) and
leakage roughly doubles every ~45 K.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from ..units import celsius_to_kelvin

DEFAULT_REFERENCE_K = celsius_to_kelvin(85.0)


@dataclass(frozen=True)
class LeakageModel:
    """Exponential leakage-vs-temperature model.

    Attributes
    ----------
    density_at_ref:
        Leakage power density at the reference temperature [W/m^2].
    beta:
        Exponential temperature sensitivity [1/K].
    reference_k:
        Reference temperature [K].
    saturation_k:
        Temperature above which the exponential is evaluated at this
        clamp instead [K].  The exponential law is a local fit; far above
        the operating range it diverges and, coupled with a thermal
        model, produces unbounded runaway.  Clamping keeps the known
        run-away case of the paper (the 4-tier air-cooled stack, up to
        178 degC) bounded while leaving all sub-120 degC behaviour
        untouched.
    """

    density_at_ref: float
    beta: float = 0.015
    reference_k: float = DEFAULT_REFERENCE_K
    saturation_k: float = celsius_to_kelvin(120.0)

    def __post_init__(self) -> None:
        if self.density_at_ref < 0.0:
            raise ValueError("leakage density must be non-negative")
        if self.beta < 0.0:
            raise ValueError("beta must be non-negative")
        if self.reference_k <= 0.0:
            raise ValueError("reference temperature must be positive")

    def block_law(self, area: float) -> Callable[[float, float], float]:
        """``law(temperature_k, voltage_scale)`` -> leakage power [W] of one
        block of ``area`` [m^2], with its constant factors folded in once."""
        if area < 0.0:
            raise ValueError("area must be non-negative")
        density_area = self.density_at_ref * area
        beta, reference_k, saturation_k = self.beta, self.reference_k, self.saturation_k
        exp = math.exp

        def law(temperature_k: float, voltage_scale: float) -> float:
            if temperature_k <= 0.0:
                raise ValueError("temperature must be positive")
            if voltage_scale <= 0.0:
                raise ValueError("voltage scale must be positive")
            # min(temperature_k, saturation_k) without the call
            t_k = saturation_k if saturation_k < temperature_k else temperature_k
            return density_area * voltage_scale * exp(beta * (t_k - reference_k))

        return law

    def power(
        self, area: float, temperature_k: float, voltage_scale: float = 1.0
    ) -> float:
        """Leakage power of a block [W].

        Parameters
        ----------
        area:
            Block area [m^2].
        temperature_k:
            Block temperature [K].
        voltage_scale:
            ``V/V0`` of the current DVFS setting.
        """
        return self.block_law(area)(temperature_k, voltage_scale)


CORE_LEAKAGE = LeakageModel(density_at_ref=0.8 / 10e-6)
"""Core leakage: 0.8 W per 10 mm^2 core at 85 degC."""

CACHE_LEAKAGE = LeakageModel(density_at_ref=0.6 / 19e-6)
"""L2 leakage: 0.6 W per 19 mm^2 bank at 85 degC (dense SRAM leaks less
per area than hot logic at this node)."""

OTHER_LEAKAGE = LeakageModel(density_at_ref=0.3 / 35e-6)
"""Crossbar/IO leakage: 0.3 W per 35 mm^2 at 85 degC."""
