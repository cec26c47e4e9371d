"""3D stack descriptions: tiers, inter-tier cavities and cooling modes.

A :class:`StackDesign` is the ordered bottom-to-top sequence of solid
layers and (in liquid mode) micro-channel cavities that the compact
thermal model discretises.  The builder :func:`build_3d_mpsoc` constructs
the paper's 2- and 4-tier UltraSPARC-T1-based targets:

* Each tier is a wiring (BEOL) layer plus a 0.15 mm silicon die whose
  floorplan carries the power sources (Table I).
* Logic and memory sit on separate tiers (Section II-A): core tiers and
  cache tiers alternate; the 4-tier stack holds two 8-core Niagara systems
  (16 cores, 8 L2 banks).
* Liquid mode: a 0.1 mm micro-channel cavity (Table I geometry) sits in
  the inter-tier gap between every pair of adjacent tiers — ``tiers - 1``
  cavities, the arrangement of the variable-flow evaluation the paper
  builds on [9] — and the stack is capped by a bonded lid.  Heat leaves
  exclusively through the coolant.  This placement also reproduces the
  paper's observation that the 4-tier stack runs *cooler* than the 2-tier
  one "due to the increased number of cooling tiers (cavities)": three
  cavities serve two Niagara systems where one serves one.
* Air mode: the same stack with solid low-conductivity bonding layers in
  the inter-tier gaps and a lumped back-side heat sink on top
  (Table I: 10 W/K, 140 J/K).  This is the conventional configuration the
  paper shows failing for 4 tiers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, List, Optional, Tuple, Union

from .. import constants
from ..materials.fluids import Liquid, WATER
from ..materials.solids import SolidMaterial, SILICON, WIRING, THERMAL_INTERFACE, BOND
from .channels import MicroChannelGeometry
from .floorplan import Block, Floorplan
from .niagara import (
    DIE_WIDTH,
    DIE_HEIGHT,
    core_tier_floorplan,
    cache_tier_floorplan,
)


class CoolingMode(str, Enum):
    """How heat is removed from the stack."""

    AIR = "air"
    LIQUID = "liquid"


@dataclass(frozen=True)
class Layer:
    """A solid stack layer.

    Attributes
    ----------
    name:
        Unique layer identifier within the stack.
    material:
        Bulk solid material.
    thickness:
        Layer thickness [m].
    floorplan:
        Floorplan whose blocks inject power into this layer, or ``None``
        for passive layers.
    """

    name: str
    material: SolidMaterial
    thickness: float
    floorplan: Optional[Floorplan] = None

    def __post_init__(self) -> None:
        if self.thickness <= 0.0:
            raise ValueError(f"layer {self.name}: thickness must be positive")

    @property
    def is_source(self) -> bool:
        """Whether this layer carries power sources."""
        return self.floorplan is not None


@dataclass(frozen=True)
class Cavity:
    """An inter-tier liquid-cooling cavity.

    Attributes
    ----------
    name:
        Unique identifier within the stack.
    geometry:
        Micro-channel geometry of the cavity.
    coolant:
        Liquid flowing through the channels.
    wall_material:
        Material of the inter-channel walls (etched die back side).
    """

    name: str
    geometry: MicroChannelGeometry
    coolant: Liquid = WATER
    wall_material: SolidMaterial = SILICON

    @property
    def thickness(self) -> float:
        """Cavity (channel) height [m]."""
        return self.geometry.height


def refrigerant_liquid(refrigerant) -> Liquid:
    """Saturated-liquid view of a refrigerant as a :class:`Liquid`.

    Supplies the capacity/transport numbers the homogenised cavity
    needs (lateral conduction, thermal mass) for two-phase cavities.
    """
    return Liquid(
        name=f"{refrigerant.name} (sat. liquid)",
        density=refrigerant.liquid_density,
        specific_heat=refrigerant.liquid_specific_heat,
        conductivity=refrigerant.liquid_conductivity,
        viscosity=refrigerant.liquid_viscosity,
    )


@dataclass(frozen=True)
class TwoPhaseCavity(Cavity):
    """An inter-tier cavity cooled by an evaporating refrigerant.

    Section III argues flow boiling is "an excellent choice to consider
    for inter-tier cooling of 3D MPSoC stacks", with the caveat that the
    experimental experience "must be scaled down to the 50 um height of
    micro-channels permissible in between the TSVs" — this class is that
    forward-looking configuration in the compact model.  The evaporating
    fluid absorbs heat at an essentially constant saturation temperature
    (Fig. 8), so the compact model anchors the cavity's fluid cells at
    ``saturation_k`` and couples them to the dies through a flow-boiling
    heat transfer coefficient evaluated at the design heat flux.

    Attributes
    ----------
    refrigerant:
        Working fluid (see :mod:`repro.materials.refrigerants`).
    saturation_k:
        Inlet saturation temperature of the loop [K].
    design_flux:
        Footprint heat flux at which the boiling HTC is evaluated
        [W/m^2]; flow boiling is flux- (not flow-) dominated.
    """

    refrigerant: "Refrigerant" = None  # type: ignore[assignment]
    saturation_k: float = 303.15
    design_flux: float = 3.0e5

    def __post_init__(self) -> None:
        from ..materials.refrigerants import R134A

        if self.refrigerant is None:
            object.__setattr__(self, "refrigerant", R134A)
        if self.saturation_k <= 0.0:
            raise ValueError("saturation temperature must be positive")
        if self.design_flux <= 0.0:
            raise ValueError("design flux must be positive")

    def boiling_htc(self) -> float:
        """Wall flow-boiling coefficient at the design point [W/(m^2 K)]."""
        from ..heat_transfer.boiling import flow_boiling_htc

        return flow_boiling_htc(
            self.refrigerant,
            self.saturation_k,
            self.design_flux,
            quality=0.3,
            hydraulic_diameter=self.geometry.hydraulic_diameter,
        )

    def dryout_limited_power(
        self, mass_flow: float, inlet_quality: float = 0.0
    ) -> float:
        """Largest heat load the loop absorbs before dry-out [W].

        ``mdot h_fg (1 - x_in)`` — Section III's "as long as dry-out of
        the annular liquid film ... is avoided".
        """
        if mass_flow <= 0.0:
            raise ValueError("mass flow must be positive")
        if not 0.0 <= inlet_quality < 1.0:
            raise ValueError("inlet quality must be in [0, 1)")
        h_fg = self.refrigerant.latent_heat(self.saturation_k)
        return mass_flow * h_fg * (1.0 - inlet_quality)


StackElement = Union[Layer, Cavity]


@dataclass
class StackDesign:
    """An ordered 3D stack, listed bottom to top.

    Attributes
    ----------
    name:
        Stack identifier, e.g. ``"2-tier liquid"``.
    width:
        Extent along the flow direction [m].
    height:
        Extent across the flow direction [m].
    elements:
        Solid layers and cavities, bottom to top.
    cooling_mode:
        Air or liquid cooling.
    sink_conductance:
        Lumped heat-sink conductance to ambient [W/K] (air mode only).
    sink_capacitance:
        Lumped heat-sink capacitance [J/K] (air mode only).
    """

    name: str
    width: float
    height: float
    elements: List[StackElement] = field(default_factory=list)
    cooling_mode: CoolingMode = CoolingMode.LIQUID
    sink_conductance: float = constants.HEAT_SINK_CONDUCTANCE
    sink_capacitance: float = constants.HEAT_SINK_CAPACITANCE

    def __post_init__(self) -> None:
        if self.width <= 0.0 or self.height <= 0.0:
            raise ValueError("stack extents must be positive")
        names = [e.name for e in self.elements]
        if len(names) != len(set(names)):
            raise ValueError("stack element names must be unique")
        if not self.elements:
            raise ValueError("a stack needs at least one element")
        for element in self.elements:
            if isinstance(element, Layer) and element.floorplan is not None:
                fp = element.floorplan
                if (
                    abs(fp.width - self.width) > 1e-9
                    or abs(fp.height - self.height) > 1e-9
                ):
                    raise ValueError(
                        f"floorplan of layer {element.name} does not match "
                        "the stack outline"
                    )

    # -- queries ------------------------------------------------------------

    @property
    def area(self) -> float:
        """Stack footprint [m^2]."""
        return self.width * self.height

    @property
    def total_thickness(self) -> float:
        """Total stack thickness [m]."""
        return sum(e.thickness for e in self.elements)

    @property
    def cavities(self) -> List[Cavity]:
        """All liquid cavities, bottom to top."""
        return [e for e in self.elements if isinstance(e, Cavity)]

    @property
    def cavity_count(self) -> int:
        """Number of liquid cavities."""
        return len(self.cavities)

    @property
    def source_layers(self) -> List[Layer]:
        """All layers carrying power sources, bottom to top."""
        return [
            e
            for e in self.elements
            if isinstance(e, Layer) and e.is_source
        ]

    @property
    def tier_count(self) -> int:
        """Number of active tiers (source layers)."""
        return len(self.source_layers)

    def element(self, name: str) -> StackElement:
        """Look an element up by name."""
        for e in self.elements:
            if e.name == name:
                return e
        raise KeyError(name)

    def iter_blocks(self) -> Iterator[Tuple[Layer, Block]]:
        """Iterate over ``(layer, block)`` pairs of all source layers."""
        for layer in self.source_layers:
            assert layer.floorplan is not None
            for block in layer.floorplan.blocks:
                yield layer, block

    def block_refs(self) -> List[Tuple[str, str]]:
        """Addresses of all powered blocks as ``(layer name, block name)``."""
        return [(layer.name, block.name) for layer, block in self.iter_blocks()]

    def __repr__(self) -> str:
        kinds = "/".join(
            "cavity" if isinstance(e, Cavity) else "layer" for e in self.elements
        )
        return (
            f"StackDesign({self.name!r}, {self.tier_count} tiers, "
            f"{self.cavity_count} cavities, elements={kinds})"
        )


def default_channel_geometry(
    length: float = DIE_WIDTH, span: float = DIE_HEIGHT
) -> MicroChannelGeometry:
    """The Table I micro-channel cavity geometry."""
    return MicroChannelGeometry(
        width=constants.CHANNEL_WIDTH,
        height=constants.INTERTIER_THICKNESS,
        pitch=constants.CHANNEL_PITCH,
        length=length,
        span=span,
    )


def build_3d_mpsoc(
    tiers: int = 2,
    cooling: CoolingMode = CoolingMode.LIQUID,
    *,
    coolant: Liquid = WATER,
    die_thickness: float = constants.DIE_THICKNESS,
    wiring_thickness: float = 20e-6,
    channel_geometry: Optional[MicroChannelGeometry] = None,
    lid_thickness: float = 0.3e-3,
    two_phase: bool = False,
    refrigerant=None,
    saturation_k: Optional[float] = None,
    design_flux: Optional[float] = None,
    tier_pattern: Optional[str] = None,
    name: Optional[str] = None,
) -> StackDesign:
    """Build the paper's 2- or 4-tier UltraSPARC-T1-based 3D MPSoC.

    Parameters
    ----------
    tiers:
        Number of active tiers; must be even so cores and caches pair up
        (the paper evaluates 2 and 4).
    cooling:
        Liquid (inter-tier cavities) or air (solid bonds + back-side sink).
    coolant:
        Cavity liquid; Table I and all system experiments use water.
    die_thickness:
        Thickness of each silicon die [m].
    wiring_thickness:
        Thickness of each BEOL/wiring layer [m].  Table I gives the wiring
        material properties but not its thickness; 20 um is the BEOL-scale
        assumption documented in DESIGN.md.
    channel_geometry:
        Cavity geometry override; defaults to Table I.
    lid_thickness:
        Thickness of the bonded lid capping the top cavity [m]
        (liquid mode only).
    two_phase:
        Fill the cavities with an evaporating refrigerant instead of
        single-phase water (the Section III direction; see
        :class:`TwoPhaseCavity`).
    refrigerant:
        Working fluid for two-phase cavities (default R134a).
    saturation_k:
        Inlet saturation temperature of the two-phase loop [K];
        defaults to the :class:`TwoPhaseCavity` design point.
    design_flux:
        Footprint heat flux at which the boiling HTC is evaluated
        [W/m^2]; defaults to the :class:`TwoPhaseCavity` design point.
    tier_pattern:
        Bottom-to-top tier kinds as a string of ``'c'`` (core tier) and
        ``'m'`` (memory/cache tier); defaults to alternating
        ``"cm" * (tiers // 2)``, the paper's logic/memory separation.
        Other patterns support thermally-aware tier-ordering studies
        (see :mod:`repro.design`).
    name:
        Stack identifier; auto-generated when omitted.

    Returns
    -------
    StackDesign
        The assembled stack, bottom to top.
    """
    if tiers < 2 or tiers % 2 != 0:
        raise ValueError("tiers must be an even number >= 2")
    if tier_pattern is None:
        tier_pattern = "cm" * (tiers // 2)
    if len(tier_pattern) != tiers:
        raise ValueError("tier pattern length must equal the tier count")
    if set(tier_pattern) - {"c", "m"}:
        raise ValueError("tier pattern may only contain 'c' and 'm'")
    if tier_pattern.count("c") != tier_pattern.count("m"):
        raise ValueError(
            "tier pattern needs equal counts of core ('c') and memory "
            "('m') tiers — every pair of cores shares an L2"
        )
    geometry = channel_geometry or default_channel_geometry()
    elements: List[StackElement] = []
    core_counter = 0
    cache_counter = 0
    for tier in range(tiers):
        if tier_pattern[tier] == "c":
            floorplan = core_tier_floorplan(
                first_core=core_counter, name=f"tier{tier} cores"
            )
            core_counter += 8
        else:
            floorplan = cache_tier_floorplan(
                first_cache=cache_counter, name=f"tier{tier} caches"
            )
            cache_counter += 4
        elements.append(
            Layer(
                name=f"tier{tier}_wiring",
                material=WIRING,
                thickness=wiring_thickness,
            )
        )
        elements.append(
            Layer(
                name=f"tier{tier}_die",
                material=SILICON,
                thickness=die_thickness,
                floorplan=floorplan,
            )
        )
        if tier == tiers - 1:
            break
        if cooling is CoolingMode.LIQUID and two_phase:
            from ..materials.refrigerants import R134A

            working = refrigerant or R134A
            loop: dict = {}
            if saturation_k is not None:
                loop["saturation_k"] = float(saturation_k)
            if design_flux is not None:
                loop["design_flux"] = float(design_flux)
            elements.append(
                TwoPhaseCavity(
                    name=f"cavity{tier}",
                    geometry=geometry,
                    coolant=refrigerant_liquid(working),
                    refrigerant=working,
                    **loop,
                )
            )
        elif cooling is CoolingMode.LIQUID:
            elements.append(
                Cavity(name=f"cavity{tier}", geometry=geometry, coolant=coolant)
            )
        else:
            # The cavity is not etched: a solid adhesive/oxide bond
            # joins the tiers instead.
            elements.append(
                Layer(
                    name=f"bond{tier}",
                    material=BOND,
                    thickness=constants.INTERTIER_THICKNESS,
                )
            )
    if cooling is CoolingMode.LIQUID:
        elements.append(
            Layer(name="lid", material=SILICON, thickness=lid_thickness)
        )
    else:
        # Thermal-interface layer toward the lumped back-side heat sink.
        elements.append(
            Layer(
                name="tim",
                material=THERMAL_INTERFACE,
                thickness=constants.INTERTIER_THICKNESS,
            )
        )
    if cooling is CoolingMode.LIQUID:
        mode = "two-phase" if two_phase else "liquid"
    else:
        mode = "air"
    return StackDesign(
        name=name or f"{tiers}-tier {mode}",
        width=DIE_WIDTH,
        height=DIE_HEIGHT,
        elements=elements,
        cooling_mode=cooling,
    )
