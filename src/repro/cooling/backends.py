"""Pluggable cooling backends (the §III cooling-technology axis).

The paper's §III treats the cooling technology — forced air, single-phase
liquid, two-phase flow boiling — as the design axis that decides whether
a 3D MPSoC is thermally viable.  This module makes that axis a real
abstraction: every cavity is served by a :class:`CoolingBackend`,
picked by :func:`backend_for_cavity` from the cavity's type, that owns

* the fin-enhanced footprint heat transfer coefficient
  (:meth:`CoolingBackend.effective_htc`),
* the kind of fluid coupling the thermal assembly must emit for its
  level (:meth:`CoolingBackend.fluid_coupling` — an advection stencil
  for single-phase liquid, a saturation anchor for two-phase), and
* the run-time response to a flow command
  (:meth:`CoolingBackend.respond_to_flow` /
  :meth:`CoolingBackend.hydraulic_state`).

The single-phase backend is a stateless shim over the existing
correlations in :mod:`repro.heat_transfer.convection` — byte-for-byte
the coefficients the assembly used before the refactor.  The air sink
on top of the stack has no backend: the thermal model assembles it as
a lumped node.  The two-phase
backend wraps the §III marching evaporator of
:mod:`repro.twophase.evaporator`: per control step the commanded flow
and the footprint heat-flux pattern drive the marcher, whose
row-averaged saturation profile replaces the static anchor temperature
(quasi-static coupling, LRU-cached on the quantised (flow, flux
pattern, inlet quality) key).  Dry-out surfaces as
:class:`~repro.thermal.diagnostics.CoolingDryoutError` — part of the
solver-error taxonomy — instead of a raw traceback.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..geometry.stack import Cavity, TwoPhaseCavity
from ..heat_transfer.convection import cavity_effective_htc
from ..keyed_cache import CacheInfo, KeyedCache
from ..obs.metrics import get_registry
from ..obs.trace import get_tracer
from ..twophase.evaporator import DryoutError, MicroEvaporator
from ..units import ml_per_min_to_m3_per_s

TWO_PHASE_ANCHOR_W_PER_K = 10.0
"""Per-cell conductance anchoring two-phase fluid cells at saturation
[W/K].

An evaporating refrigerant absorbs heat "without an increase in its
temperature ... because simply more liquid evaporates into vapor"
(Section III) — i.e. the fluid behaves as a constant-temperature
reservoir until dry-out.  The anchor is ~10^3 times larger than any
convective cell conductance, making the cells effectively Dirichlet
nodes without harming the matrix conditioning.  Re-exported by
:mod:`repro.thermal.model` for backwards compatibility.
"""

MARCH_CACHE_SIZE = 32
"""Marches each two-phase backend caches (least recently used first)."""

FLOW_QUANTUM_ML_MIN = 1e-3
FLUX_QUANTUM_W_M2 = 100.0
"""Quantisation of the march cache key: a command within one flow and
flux quantum of a cached one reuses its march."""


@dataclass(frozen=True)
class FluidCoupling:
    """How one cavity level couples into the thermal system.

    Attributes
    ----------
    kind:
        ``"advection"`` — upwind advective transport at the commanded
        capacity rate (single-phase liquid); ``"anchor"`` — cells
        pinned at a saturation temperature through a large conductance
        (two-phase).
    effective_htc:
        Fin-enhanced footprint heat transfer coefficient coupling the
        cavity to the dies above/below [W/(m^2 K)].
    anchor_w_per_k:
        Per-cell anchor conductance (``kind == "anchor"`` only) [W/K].
    anchor_temperature_k:
        Anchor (saturation) temperature (``kind == "anchor"`` only) [K].
    """

    kind: str
    effective_htc: float
    anchor_w_per_k: float = 0.0
    anchor_temperature_k: Optional[float] = None


@dataclass(frozen=True)
class HydraulicState:
    """Run-time hydraulic snapshot of one cooling backend.

    Attributes
    ----------
    backend, cavity:
        Backend name and the cavity it serves (``None`` for a backend
        built without one).
    flow_ml_min:
        Last commanded flow [ml/min] (``None`` before any command).
    dynamic:
        Whether flow commands move the fluid coupling at run time.
    saturation_k, htc_w_m2k, quality:
        Row-averaged axial profiles of the last two-phase march
        (``None`` for static/single-phase backends).
    dryout_margin:
        ``1 - max outlet quality`` seen by this backend; the headroom
        to dry-out (``None`` when never marched).
    cache:
        ``(hits, misses, currsize, maxsize)`` of the march cache.
    """

    backend: str
    cavity: Optional[str]
    flow_ml_min: Optional[float]
    dynamic: bool
    saturation_k: Optional[np.ndarray] = None
    htc_w_m2k: Optional[np.ndarray] = None
    quality: Optional[np.ndarray] = None
    dryout_margin: Optional[float] = None
    cache: Optional[CacheInfo] = None


@dataclass(frozen=True)
class CoolingConfig:
    """Run-time configuration of the dynamic two-phase coupling.

    Attributes
    ----------
    dynamic:
        Let flow commands re-march the evaporator and move the
        saturation anchors; ``False`` keeps the legacy static anchor
        (bitwise-identical to the pre-backend behaviour).
    inlet_quality:
        Vapour quality at the cavity inlet [-].
    segments_per_row:
        Marching segments per grid column (axial resolution of the
        quasi-static coupling).
    """

    dynamic: bool = False
    inlet_quality: float = 0.03
    segments_per_row: int = 4

    def __post_init__(self) -> None:
        if not 0.0 <= self.inlet_quality < 1.0:
            raise ValueError("inlet quality must be in [0, 1)")
        if self.segments_per_row < 1:
            raise ValueError("need at least one segment per row")


class CoolingBackend:
    """Base cooling backend: static, flow-insensitive coupling.

    A backend holds the run state of its cavity and nothing else a run
    changes: the thermal model builds new backends for every run (see
    :class:`repro.thermal.model.RunState`).
    """

    #: Backend name, reported in :class:`HydraulicState`; subclasses
    #: override.
    name = "static"

    def __init__(
        self,
        cavity: Optional[Cavity] = None,
        config: Optional[CoolingConfig] = None,
    ) -> None:
        self.cavity = cavity
        self.config = config if config is not None else CoolingConfig()
        self._flow_ml_min: Optional[float] = None

    @property
    def dynamic(self) -> bool:
        """Whether flow commands move the fluid coupling at run time."""
        return False

    def effective_htc(self) -> float:
        """Fin-enhanced footprint HTC of the served cavity [W/(m^2 K)]."""
        raise NotImplementedError

    def fluid_coupling(self) -> FluidCoupling:
        """The coupling the thermal assembly must emit for this level."""
        raise NotImplementedError

    def respond_to_flow(
        self,
        flow_ml_min: float,
        flux_profile_w_m2: Optional[np.ndarray] = None,
        inlet_quality: Optional[float] = None,
    ) -> Optional[np.ndarray]:
        """React to a flow command; the new anchor profile, if any.

        Static backends record the command and return ``None`` (no
        anchor movement); the two-phase backend re-marches and returns
        the per-row saturation profile [K].
        """
        self._flow_ml_min = float(flow_ml_min)
        return None

    def hydraulic_state(self) -> HydraulicState:
        """Snapshot of the backend's run-time hydraulic state."""
        return HydraulicState(
            backend=self.name,
            cavity=self.cavity.name if self.cavity is not None else None,
            flow_ml_min=self._flow_ml_min,
            dynamic=self.dynamic,
        )


class SinglePhaseLiquidBackend(CoolingBackend):
    """Single-phase liquid micro-channel cooling (Section II-A).

    A stateless shim over :func:`cavity_effective_htc`; the advective
    transport itself stays in the assembled ``A_adv`` pattern (it is
    linear in the flow, so the model never reassembles on flow
    changes).
    """

    name = "single_phase_liquid"

    def effective_htc(self) -> float:
        cavity = self.cavity
        assert cavity is not None
        return cavity_effective_htc(
            cavity.geometry, cavity.coolant, cavity.wall_material
        )

    def fluid_coupling(self) -> FluidCoupling:
        return FluidCoupling(kind="advection", effective_htc=self.effective_htc())


class TwoPhaseBackend(CoolingBackend):
    """Two-phase flow-boiling cooling wrapping the §III marcher.

    Static by default (the legacy saturation anchor); with
    ``config.dynamic`` the commanded flow and the footprint heat-flux
    pattern drive :meth:`MicroEvaporator.march` per control step, and
    the row-averaged saturation profile replaces the static anchor
    temperature (quasi-static coupling).  Marches are LRU-cached on the
    quantised (flow, flux pattern, inlet quality) key, so a settled
    control loop pays one march per distinct operating point.  A cached
    march is the march of the first flux that landed in its key, not a
    function of the key, so the cache is run state: it goes with the
    backend when the model starts the next run.
    """

    name = "two_phase"

    def __init__(
        self,
        cavity: TwoPhaseCavity,
        config: Optional[CoolingConfig] = None,
    ) -> None:
        if not isinstance(cavity, TwoPhaseCavity):
            raise TypeError("TwoPhaseBackend requires a TwoPhaseCavity")
        super().__init__(cavity=cavity, config=config)
        geometry = cavity.geometry
        self.evaporator = MicroEvaporator(
            refrigerant=cavity.refrigerant,
            channel_width=geometry.width,
            channel_height=geometry.height,
            pitch=geometry.pitch,
            length=geometry.length,
            channels=geometry.channel_count,
        )
        self._cache = KeyedCache(MARCH_CACHE_SIZE, hits="cooling.march_cache_hits")
        self._last_solution = None
        self._last_rows: Optional[int] = None
        self._min_dryout_margin: Optional[float] = None
        registry = get_registry()
        self._c_marches = registry.counter("cooling.march_calls")
        self._c_dryouts = registry.counter("cooling.dryout_events")

    @property
    def dynamic(self) -> bool:
        return self.config.dynamic

    def effective_htc(self) -> float:
        cavity = self.cavity
        assert isinstance(cavity, TwoPhaseCavity)
        return cavity.geometry.effective_htc(
            cavity.boiling_htc(), cavity.wall_material.conductivity
        )

    def fluid_coupling(self) -> FluidCoupling:
        cavity = self.cavity
        assert isinstance(cavity, TwoPhaseCavity)
        return FluidCoupling(
            kind="anchor",
            effective_htc=self.effective_htc(),
            anchor_w_per_k=TWO_PHASE_ANCHOR_W_PER_K,
            anchor_temperature_k=cavity.saturation_k,
        )

    # -- run-time coupling --------------------------------------------------

    def mass_flow_kg_s(self, flow_ml_min: float) -> float:
        """Volumetric pump command -> refrigerant mass flow [kg/s]."""
        cavity = self.cavity
        assert isinstance(cavity, TwoPhaseCavity)
        density = cavity.refrigerant.liquid_density
        return density * ml_per_min_to_m3_per_s(flow_ml_min)

    def _march_key(
        self, flow_ml_min: float, flux: np.ndarray, inlet_quality: float
    ) -> tuple:
        return (
            int(round(flow_ml_min / FLOW_QUANTUM_ML_MIN)),
            tuple(np.rint(flux / FLUX_QUANTUM_W_M2).astype(np.int64).tolist()),
            round(float(inlet_quality), 6),
        )

    def respond_to_flow(
        self,
        flow_ml_min: float,
        flux_profile_w_m2: Optional[np.ndarray] = None,
        inlet_quality: Optional[float] = None,
    ) -> Optional[np.ndarray]:
        """March the evaporator for one (flow, flux pattern) command.

        Parameters
        ----------
        flow_ml_min:
            Commanded volumetric flow [ml/min].
        flux_profile_w_m2:
            Footprint heat flux per axial row (grid column along the
            flow) [W/m^2]; scalar zero pattern when omitted.
        inlet_quality:
            Per-call inlet-quality override (dry-out fault injection);
            the configured value when omitted.

        Returns the per-row saturation-temperature profile [K], or
        ``None`` when the backend is static.

        Raises
        ------
        CoolingDryoutError
            When the annular film evaporates before the outlet; maps
            :class:`DryoutError` into the solver-error taxonomy.
        """
        self._flow_ml_min = float(flow_ml_min)
        if not self.config.dynamic:
            return None
        if flux_profile_w_m2 is None:
            flux_profile_w_m2 = np.zeros(1)
        flux = np.asarray(flux_profile_w_m2, dtype=float)
        rows = flux.size
        quality = (
            self.config.inlet_quality
            if inlet_quality is None
            else float(inlet_quality)
        )
        solution, profile = self._cache.get(
            self._march_key(flow_ml_min, flux, quality),
            lambda: self._march(flow_ml_min, flux, quality, rows),
        )
        self._last_solution = solution
        self._last_rows = rows
        margin = 1.0 - float(solution.quality[-1])
        if self._min_dryout_margin is None or margin < self._min_dryout_margin:
            self._min_dryout_margin = margin
        return profile

    def _march(
        self, flow_ml_min: float, flux: np.ndarray, quality: float, rows: int
    ) -> tuple:
        """``(solution, row-averaged saturation profile)`` of one march.

        Every cache hit returns the profile, so it is folded once, with
        the march (the cache key fixes ``rows``), and made read-only.
        """
        cavity = self.cavity
        assert isinstance(cavity, TwoPhaseCavity)
        segments = rows * self.config.segments_per_row
        profile = np.repeat(flux, self.config.segments_per_row)
        self._c_marches.inc()
        tracer = get_tracer()
        with tracer.span(
            "cooling.march",
            cavity=cavity.name,
            flow_ml_min=round(float(flow_ml_min), 3),
            segments=segments,
        ):
            try:
                solution = self.evaporator.march(
                    profile,
                    self.mass_flow_kg_s(flow_ml_min),
                    cavity.saturation_k,
                    inlet_quality=quality,
                    segments=segments,
                )
            except DryoutError as exc:
                self._c_dryouts.inc()
                self._min_dryout_margin = 0.0
                tracer.event(
                    "cooling.dryout",
                    cavity=cavity.name,
                    flow_ml_min=round(float(flow_ml_min), 3),
                )
                # Imported lazily: diagnostics sits under repro.thermal,
                # which imports this module for the anchor constant.
                from ..thermal.diagnostics import CoolingDryoutError

                raise CoolingDryoutError(
                    f"cavity {cavity.name!r}: {exc} at "
                    f"{flow_ml_min:.1f} ml/min",
                    cavity=cavity.name,
                ) from exc
        saturation = solution.row_means(rows).saturation_k
        saturation.flags.writeable = False
        return solution, saturation

    def hydraulic_state(self) -> HydraulicState:
        saturation = htc = quality = None
        solution = self._last_solution
        if solution is not None and self._last_rows:
            rows = solution.row_means(self._last_rows)
            saturation = rows.saturation_k
            htc = rows.htc
            quality = rows.quality
        return HydraulicState(
            backend=self.name,
            cavity=self.cavity.name if self.cavity is not None else None,
            flow_ml_min=self._flow_ml_min,
            dynamic=self.dynamic,
            saturation_k=saturation,
            htc_w_m2k=htc,
            quality=quality,
            dryout_margin=self._min_dryout_margin,
            cache=self._cache.info(),
        )


def backend_for_cavity(
    cavity: Cavity, config: Optional[CoolingConfig] = None
) -> CoolingBackend:
    """The backend serving one cavity (dispatch on the cavity type)."""
    if isinstance(cavity, TwoPhaseCavity):
        return TwoPhaseBackend(cavity, config)
    return SinglePhaseLiquidBackend(cavity, config)
