"""Refrigerant saturation-property correlations for two-phase cooling.

Section III of the paper evaluates flow boiling of low-pressure
refrigerants (R-134a is named; the referenced experiments [1], [2], [10]
use R-236fa and R-245fa) in silicon multi-microchannels.  The authors used
property libraries behind their in-house tools; here each refrigerant is
described by compact, documented correlations:

* Saturation pressure: a three-point Antoine fit
  ``log10(P[bar]) = A - B / (T[K] + C)`` anchored to published saturation
  data (normal boiling point plus two elevated-temperature points).  The
  Antoine form inverts in closed form, which gives us ``Tsat(P)`` and the
  Clausius-Clapeyron slope ``dTsat/dP`` needed to translate two-phase
  pressure drop into the falling saturation temperature seen in Fig. 8.
* Latent heat: Watson scaling from a reference value,
  ``h_fg(T) = h_fg(Tref) * ((Tc - T)/(Tc - Tref))**0.38``.
* Liquid density / specific heat / conductivity / viscosity and surface
  tension: constants at the 25 degC operating point of the test vehicle
  (the evaporator operates in a narrow 29-31 degC band, so constant
  transport properties are well inside the model error).
* Vapour density: compressibility-corrected ideal gas.

Accuracy target is the behavioural one set by the paper: correct ordering
and ratios of latent heat vs. water sensible heat (Section III quotes
~150 kJ/kg vs 4.2 kJ/(kg K)), correct sign and magnitude of the saturation
temperature drop along the channel, and reduced pressures suitable for the
Cooper nucleate-boiling correlation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Tuple

UNIVERSAL_GAS_CONSTANT = 8.314462618
"""Molar gas constant [J/(mol K)]."""

WATSON_EXPONENT = 0.38
"""Exponent of the Watson latent-heat scaling law."""


def fit_antoine(
    points: Tuple[Tuple[float, float], ...]
) -> Tuple[float, float, float]:
    """Fit Antoine coefficients (A, B, C) through three saturation points.

    Parameters
    ----------
    points:
        Three ``(temperature_k, pressure_bar)`` pairs with strictly
        increasing temperature.

    Returns
    -------
    tuple
        ``(A, B, C)`` such that ``log10(P[bar]) = A - B / (T + C)`` passes
        exactly through all three points.

    Three points fix ``C`` in closed form: with ``y = log10(P)`` and
    ``r = (y1 - y2) / (y1 - y3)``, the form gives
    ``r = (t1 - t2)(t3 + C) / ((t1 - t3)(t2 + C))``, which is linear in
    ``C``.
    """
    if len(points) != 3:
        raise ValueError("exactly three anchor points are required")
    (t1, p1), (t2, p2), (t3, p3) = points
    if not (t1 < t2 < t3):
        raise ValueError("anchor temperatures must be strictly increasing")
    if min(p1, p2, p3) <= 0.0:
        raise ValueError("anchor pressures must be positive")
    y1, y2, y3 = (math.log10(p) for p in (p1, p2, p3))
    if y1 == y3:
        raise ValueError("anchor points admit no Antoine fit")
    r = (y1 - y2) / (y1 - y3)
    denominator = r * (t1 - t3) - (t1 - t2)
    if denominator == 0.0:
        raise ValueError("anchor points admit no Antoine fit")
    c = ((t1 - t2) * t3 - r * (t1 - t3) * t2) / denominator
    if t1 + c <= 0.0:
        raise ValueError(
            f"Antoine fit puts the pole at T = {-c:.6g} K, above the "
            "lowest anchor"
        )
    b = (y1 - y2) / (1.0 / (t2 + c) - 1.0 / (t1 + c))
    a = y1 + b / (t1 + c)
    return a, b, c


@dataclass(frozen=True)
class Refrigerant:
    """A refrigerant described by compact saturation correlations.

    Attributes
    ----------
    name:
        ASHRAE designation, e.g. ``"R245fa"``.
    molar_mass:
        Molar mass [kg/mol].
    critical_temperature:
        Critical temperature [K].
    critical_pressure:
        Critical pressure [Pa].
    saturation_anchors:
        Three ``(T [K], P [bar])`` points the Antoine fit passes through.
    latent_heat_ref:
        Latent heat of vaporisation at ``reference_temperature`` [J/kg].
    reference_temperature:
        Temperature of the constant-property reference state [K].
    liquid_density, liquid_specific_heat, liquid_conductivity,
    liquid_viscosity, surface_tension:
        Saturated-liquid transport properties at the reference state.
    """

    name: str
    molar_mass: float
    critical_temperature: float
    critical_pressure: float
    saturation_anchors: Tuple[Tuple[float, float], ...]
    latent_heat_ref: float
    reference_temperature: float
    liquid_density: float
    liquid_specific_heat: float
    liquid_conductivity: float
    liquid_viscosity: float
    surface_tension: float
    _antoine: Tuple[float, float, float] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_antoine", fit_antoine(self.saturation_anchors))

    # -- saturation curve ---------------------------------------------------

    def saturation_pressure(self, temperature_k: float) -> float:
        """Saturation pressure at a given temperature [Pa]."""
        if not 0.0 < temperature_k < self.critical_temperature:
            raise ValueError(
                f"{self.name}: temperature {temperature_k} K outside "
                f"(0, Tc={self.critical_temperature} K)"
            )
        a, b, c = self._antoine
        return 10.0 ** (a - b / (temperature_k + c)) * 1e5

    def saturation_temperature(self, pressure_pa: float) -> float:
        """Saturation temperature at a given pressure [K].

        Closed-form inversion of the Antoine correlation.
        """
        if pressure_pa <= 0.0:
            raise ValueError("pressure must be positive")
        a, b, c = self._antoine
        return b / (a - math.log10(pressure_pa / 1e5)) - c

    def dpsat_dt(self, temperature_k: float) -> float:
        """Slope of the saturation curve dP/dT [Pa/K]."""
        _, b, c = self._antoine
        p = self.saturation_pressure(temperature_k)
        return p * math.log(10.0) * b / (temperature_k + c) ** 2

    def dtsat_dp(self, temperature_k: float) -> float:
        """Inverse saturation slope dT/dP [K/Pa].

        This is the factor that converts channel pressure drop into the
        falling local saturation temperature of Fig. 8.
        """
        return 1.0 / self.dpsat_dt(temperature_k)

    def reduced_pressure(self, temperature_k: float) -> float:
        """Reduced pressure P/Pc at saturation [-] (Cooper correlation input)."""
        return self.saturation_pressure(temperature_k) / self.critical_pressure

    # -- caloric / transport properties ------------------------------------

    def latent_heat(self, temperature_k: float) -> float:
        """Latent heat of vaporisation via Watson scaling [J/kg]."""
        if not 0.0 < temperature_k < self.critical_temperature:
            raise ValueError("temperature outside validity range")
        ratio = (self.critical_temperature - temperature_k) / (
            self.critical_temperature - self.reference_temperature
        )
        return self.latent_heat_ref * ratio**WATSON_EXPONENT

    def vapour_density(self, temperature_k: float) -> float:
        """Saturated-vapour density [kg/m^3].

        Ideal gas with a first-order compressibility correction
        ``Z = 1 - 0.4 * P/Pc``, adequate below ~0.5 Pc.
        """
        p = self.saturation_pressure(temperature_k)
        z = 1.0 - 0.4 * p / self.critical_pressure
        return p * self.molar_mass / (z * UNIVERSAL_GAS_CONSTANT * temperature_k)

    def liquid_prandtl(self) -> float:
        """Liquid Prandtl number at the reference state [-]."""
        return (
            self.liquid_viscosity
            * self.liquid_specific_heat
            / self.liquid_conductivity
        )


R134A = Refrigerant(
    name="R134a",
    molar_mass=0.10203,
    critical_temperature=374.21,
    critical_pressure=4.0593e6,
    saturation_anchors=(
        (247.08, 1.013),  # normal boiling point, -26.07 degC
        (273.15, 2.928),
        (298.15, 6.654),
    ),
    latent_heat_ref=177.8e3,
    reference_temperature=298.15,
    liquid_density=1207.0,
    liquid_specific_heat=1425.0,
    liquid_conductivity=0.0824,
    liquid_viscosity=1.94e-4,
    surface_tension=8.1e-3,
)

R236FA = Refrigerant(
    name="R236fa",
    molar_mass=0.15204,
    critical_temperature=398.07,
    critical_pressure=3.200e6,
    saturation_anchors=(
        (271.71, 1.013),  # normal boiling point, -1.44 degC
        (298.15, 2.72),
        (323.15, 5.91),
    ),
    latent_heat_ref=145.0e3,
    reference_temperature=298.15,
    liquid_density=1360.0,
    liquid_specific_heat=1265.0,
    liquid_conductivity=0.0745,
    liquid_viscosity=2.92e-4,
    surface_tension=1.05e-2,
)

R245FA = Refrigerant(
    name="R245fa",
    molar_mass=0.13405,
    critical_temperature=427.16,
    critical_pressure=3.651e6,
    saturation_anchors=(
        (288.29, 1.013),  # normal boiling point, 15.14 degC
        (298.15, 1.478),
        (323.15, 3.44),
    ),
    latent_heat_ref=190.0e3,
    reference_temperature=298.15,
    liquid_density=1338.0,
    liquid_specific_heat=1322.0,
    liquid_conductivity=0.081,
    liquid_viscosity=4.02e-4,
    surface_tension=1.39e-2,
)

REFRIGERANTS: Dict[str, Refrigerant] = {
    r.name: r for r in (R134A, R236FA, R245FA)
}
"""Registry of the refrigerants evaluated by the CMOSAIC experiments."""
