"""Engineered nano-fluid coolants.

The abstract and Section I list "novel engineered environmentally
friendly nano-fluids" among the inter-tier coolants explored by
CMOSAIC.  A nano-fluid is a base liquid (water here) loaded with a
small volume fraction of high-conductivity nano-particles; the classic
effective-medium models give its properties:

* Thermal conductivity — Maxwell (1881):
  ``k_eff = k_b (k_p + 2 k_b + 2 phi (k_p - k_b)) /
            (k_p + 2 k_b - phi (k_p - k_b))``
* Viscosity — Brinkman (1952): ``mu_eff = mu_b / (1 - phi)^2.5``
* Density / volumetric heat capacity — volume-weighted mixtures.

The engineering trade-off this module exposes (and the ablation
benchmark quantifies): conductivity — and with it the convective HTC —
rises roughly linearly with loading, but viscosity rises almost exactly
as fast, so at fixed pumping budget the net cooling gain is marginal
for good particles (Al2O3 merit ~1.01) and negative for poor ones
(SiO2).  This is why the paper's system-level experiments stay with
plain water (Table I) while listing nano-fluids as an exploration
direction.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fluids import Liquid

MAX_PRACTICAL_LOADING = 0.10
"""Volume fractions beyond ~10 % are outside the dilute-suspension
validity of the Maxwell/Brinkman models (and clog micro-channels)."""


@dataclass(frozen=True)
class NanoParticle:
    """Nano-particle species suspended in the base fluid.

    Attributes
    ----------
    name:
        Species name, e.g. ``"Al2O3"``.
    conductivity:
        Particle thermal conductivity [W/(m K)].
    density:
        Particle density [kg/m^3].
    specific_heat:
        Particle specific heat [J/(kg K)].
    """

    name: str
    conductivity: float
    density: float
    specific_heat: float

    def __post_init__(self) -> None:
        for field in ("conductivity", "density", "specific_heat"):
            if getattr(self, field) <= 0.0:
                raise ValueError(f"{self.name}: {field} must be positive")


ALUMINA = NanoParticle("Al2O3", conductivity=36.0, density=3950.0, specific_heat=765.0)
COPPER_OXIDE = NanoParticle("CuO", conductivity=76.5, density=6320.0, specific_heat=532.0)
SILICA = NanoParticle("SiO2", conductivity=1.38, density=2220.0, specific_heat=745.0)


def maxwell_conductivity(
    base_k: float, particle_k: float, volume_fraction: float
) -> float:
    """Maxwell effective-medium conductivity of a dilute suspension."""
    if not 0.0 <= volume_fraction <= MAX_PRACTICAL_LOADING:
        raise ValueError(
            f"volume fraction must be in [0, {MAX_PRACTICAL_LOADING}]"
        )
    if base_k <= 0.0 or particle_k <= 0.0:
        raise ValueError("conductivities must be positive")
    numerator = particle_k + 2.0 * base_k + 2.0 * volume_fraction * (
        particle_k - base_k
    )
    denominator = particle_k + 2.0 * base_k - volume_fraction * (
        particle_k - base_k
    )
    return base_k * numerator / denominator


def brinkman_viscosity(base_mu: float, volume_fraction: float) -> float:
    """Brinkman effective viscosity of a dilute suspension."""
    if not 0.0 <= volume_fraction <= MAX_PRACTICAL_LOADING:
        raise ValueError(
            f"volume fraction must be in [0, {MAX_PRACTICAL_LOADING}]"
        )
    if base_mu <= 0.0:
        raise ValueError("viscosity must be positive")
    return base_mu / (1.0 - volume_fraction) ** 2.5


def make_nanofluid(
    base: Liquid, particle: NanoParticle, volume_fraction: float
) -> Liquid:
    """Build a nano-fluid coolant as a :class:`Liquid`.

    The result plugs into every API that accepts a coolant (cavities,
    friction, pump sizing) — the point of effective-medium modelling.

    Parameters
    ----------
    base:
        Base liquid (typically water).
    particle:
        Suspended species.
    volume_fraction:
        Particle volume fraction in [0, 0.10].
    """
    if volume_fraction == 0.0:
        return base
    phi = volume_fraction
    density = (1.0 - phi) * base.density + phi * particle.density
    # Heat capacity mixes by volume on a rho*cp basis.
    vol_cp = (
        (1.0 - phi) * base.density * base.specific_heat
        + phi * particle.density * particle.specific_heat
    )
    return Liquid(
        name=f"{base.name}+{100 * phi:.1f}%{particle.name}",
        density=density,
        specific_heat=vol_cp / density,
        conductivity=maxwell_conductivity(
            base.conductivity, particle.conductivity, phi
        ),
        viscosity=brinkman_viscosity(base.viscosity, phi),
    )


def figure_of_merit(base: Liquid, nanofluid: Liquid) -> float:
    """Mouromtseff-style coolant figure of merit, relative to the base.

    For fully developed laminar flow the wall HTC scales with ``k`` and
    the pumping power (at fixed flow and geometry) with ``mu``; a crude
    but standard single-number merit is ``(k_eff/k_b) / (mu_eff/mu_b)``:
    above 1 the loading helps, below 1 it costs more than it cools.
    """
    conductivity_gain = nanofluid.conductivity / base.conductivity
    viscosity_penalty = nanofluid.viscosity / base.viscosity
    return conductivity_gain / viscosity_penalty
