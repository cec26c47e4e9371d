"""One-dimensional marching model of a multi-microchannel evaporator.

Section III: flow boiling absorbs heat as latent heat while the local
saturation temperature *falls* along the channel (it follows the local
saturation pressure, which drops with the two-phase pressure gradient).
This model marches segment by segment down a representative channel:

1. the footprint heat flux adds latent heat → vapour quality rises;
2. the homogeneous two-phase pressure gradient lowers the pressure;
3. the local saturation temperature follows the refrigerant's curve;
4. the local heat transfer coefficient follows the flux-dominated
   flow-boiling model of :mod:`repro.heat_transfer.boiling`;
5. wall and die-base temperatures stack the convective film and the
   silicon conduction on top of the fluid temperature.

Dry-out (quality reaching 1 while heat keeps coming) raises
:class:`DryoutError`, mirroring Section III's caveat that all the
benefits hold "as long as dry-out ... is avoided".
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Callable, Sequence, Union

import numpy as np

from ..heat_transfer.boiling import FlowBoilingModel
from ..hydraulics.twophase_dp import (
    accelerational_gradient,
    two_phase_pressure_gradient,
)
from ..materials.refrigerants import Refrigerant, R245FA
from ..materials.solids import SILICON

FluxProfile = Union[Callable[[float], float], Sequence[float]]


class DryoutError(RuntimeError):
    """The annular liquid film evaporated completely before the outlet."""


@dataclass
class EvaporatorSolution:
    """Axial profiles of a marching solution.

    All arrays are segment-centre values of length ``segments``.
    """

    z: np.ndarray
    heat_flux: np.ndarray
    pressure: np.ndarray
    saturation_k: np.ndarray
    quality: np.ndarray
    htc: np.ndarray
    wall_k: np.ndarray
    base_k: np.ndarray

    def row_means(self, rows: int) -> "EvaporatorSolution":
        """Averages over equal axial bands (the sensor rows of Fig. 8)."""
        if rows < 1 or len(self.z) % rows != 0:
            raise ValueError("segment count must be a multiple of the rows")
        per = len(self.z) // rows
        bands = (getattr(self, f.name).reshape(rows, per) for f in fields(self))
        return EvaporatorSolution(*(band.mean(axis=1) for band in bands))


@dataclass
class MicroEvaporator:
    """A silicon multi-microchannel evaporator.

    Attributes
    ----------
    refrigerant:
        Working fluid (the Fig. 8 experiments use R245fa [10]).
    channel_width, channel_height:
        Channel cross-section [m].
    pitch:
        Channel pitch (width + fin) [m]; one pitch of footprint feeds one
        channel.
    length:
        Channel length along the flow [m].
    channels:
        Number of parallel channels.
    base_thickness:
        Silicon between the heaters and the channel floor [m].
    boiling:
        Flow-boiling HTC model.
    """

    refrigerant: Refrigerant = R245FA
    channel_width: float = 85e-6
    channel_height: float = 560e-6
    pitch: float = 150e-6
    length: float = 10e-3
    channels: int = 135
    base_thickness: float = 280e-6
    boiling: FlowBoilingModel = field(default_factory=FlowBoilingModel)

    def __post_init__(self) -> None:
        for name in (
            "channel_width",
            "channel_height",
            "pitch",
            "length",
            "base_thickness",
        ):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if self.channels < 1:
            raise ValueError("at least one channel required")
        if self.channel_width >= self.pitch:
            raise ValueError("channel width must be below the pitch")

    # -- geometry -------------------------------------------------------------

    @property
    def flow_area(self) -> float:
        """Flow area of one channel [m^2]."""
        return self.channel_width * self.channel_height

    @property
    def hydraulic_diameter(self) -> float:
        """Hydraulic diameter of one channel [m]."""
        return (
            2.0
            * self.channel_width
            * self.channel_height
            / (self.channel_width + self.channel_height)
        )

    @property
    def footprint_area(self) -> float:
        """Heated footprint of the whole evaporator [m^2]."""
        return self.pitch * self.channels * self.length

    def mass_flux(self, total_mass_flow: float) -> float:
        """Channel mass flux G for a total evaporator flow [kg/(m^2 s)]."""
        if total_mass_flow <= 0.0:
            raise ValueError("mass flow must be positive")
        return total_mass_flow / (self.channels * self.flow_area)

    # -- marching solution -----------------------------------------------------

    def march(
        self,
        heat_flux: FluxProfile,
        total_mass_flow: float,
        inlet_saturation_k: float,
        inlet_quality: float = 0.03,
        segments: int = 100,
    ) -> EvaporatorSolution:
        """March the evaporator from inlet to outlet.

        Parameters
        ----------
        heat_flux:
            Footprint heat flux [W/m^2]: either a callable of the axial
            position ``z`` [m] or one value per segment.
        total_mass_flow:
            Refrigerant mass flow through all channels [kg/s].
        inlet_saturation_k:
            Saturation temperature at the inlet [K] (Fig. 8: 30 degC).
        inlet_quality:
            Vapour quality at the inlet [-].
        segments:
            Number of axial segments.

        Raises
        ------
        DryoutError
            If the vapour quality reaches 1 before the outlet.
        """
        if segments < 2:
            raise ValueError("need at least two segments")
        if not 0.0 <= inlet_quality < 1.0:
            raise ValueError("inlet quality must be in [0, 1)")
        g = self.mass_flux(total_mass_flow)
        mdot_channel = total_mass_flow / self.channels
        dz = self.length / segments
        dh = self.hydraulic_diameter

        if callable(heat_flux):
            profile = heat_flux
        else:
            values = np.asarray(heat_flux, dtype=float)
            if values.shape != (segments,):
                raise ValueError("flux array must have one value per segment")
            values = values.tolist()

            def profile(z: float) -> float:
                return values[min(segments - 1, int(z / self.length * segments))]

        pressure = self.refrigerant.saturation_pressure(inlet_saturation_k)
        quality = inlet_quality
        zs = (np.arange(segments) + 0.5) * dz
        rows = []
        for z in zs.tolist():
            t_sat = self.refrigerant.saturation_temperature(pressure)
            flux = float(profile(z))
            if flux < 0.0:
                raise ValueError("heat flux must be non-negative")
            heat = flux * self.pitch * dz  # power into this channel segment
            h_fg = self.refrigerant.latent_heat(t_sat)
            dx = heat / (mdot_channel * h_fg)
            quality_new = quality + dx
            if quality_new >= 1.0:
                raise DryoutError(
                    f"dry-out at z = {z * 1e3:.2f} mm (quality {quality_new:.2f})"
                )
            friction = two_phase_pressure_gradient(
                self.refrigerant, t_sat, quality, g, dh
            )
            accel = accelerational_gradient(
                self.refrigerant, t_sat, quality, dx / dz, g
            )
            pressure -= (friction + accel) * dz
            if pressure <= 0.0:
                raise ValueError("pressure fell below zero; reduce the load")

            htc = self.boiling.htc(
                self.refrigerant, t_sat, max(flux, 1e-3), quality, dh
            )
            wall = t_sat + flux / htc
            base = wall + flux * self.base_thickness / SILICON.conductivity
            rows.append((flux, pressure, t_sat, quality, htc, wall, base))
            quality = quality_new

        # One contiguous row per profile, in EvaporatorSolution's field order.
        return EvaporatorSolution(zs, *np.array(list(zip(*rows))))

    def flow_for_outlet_saturation(
        self,
        heat_flux: FluxProfile,
        inlet_saturation_k: float,
        outlet_saturation_k: float,
        inlet_quality: float = 0.03,
        segments: int = 100,
        bounds: tuple = (1e-5, 5e-2),
    ) -> float:
        """Mass flow that yields a target outlet saturation temperature.

        Bisection on the marching model; used to pin the Fig. 8 operating
        point (30 degC in, 29.5 degC out).
        """
        if outlet_saturation_k >= inlet_saturation_k:
            raise ValueError("outlet saturation must sit below the inlet")

        def outlet(mass_flow: float) -> float:
            solution = self.march(
                heat_flux, mass_flow, inlet_saturation_k, inlet_quality, segments
            )
            return float(solution.saturation_k[-1])

        lo, hi = bounds
        # Higher flow -> lower quality but higher G -> more pressure drop;
        # in the laminar regime dp rises with flow, so outlet Tsat falls
        # monotonically as flow rises.
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            try:
                t_out = outlet(mid)
            except DryoutError:
                lo = mid
                continue
            if t_out > outlet_saturation_k:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)
