"""Composable fault models for sensors, the cooling loop and actuators.

Every fault is a small picklable object (campaigns fan out across
processes), active inside a ``[start, end)`` time window so campaigns
can inject mid-run failures and recoveries.  Three families:

* **Sensor faults** implement the
  :data:`repro.thermal.sensors.SensorFault` protocol,
  ``(time, reading) -> reading``, and are installed into
  :class:`~repro.thermal.sensors.TemperatureSensors`.  A dead sensor
  reads NaN; the policies treat non-finite readings as sensor loss.
* **Flow faults** transform the commanded per-cavity flow into the flow
  the cavity actually receives (worn pump, clogged cavity).
* **Actuator faults** delay the DVFS settings reaching the cores.

A :class:`FaultSet` aggregates one of each family for a scenario and is
what :class:`~repro.core.simulator.SystemSimulator` consumes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

BlockRef = Tuple[str, str]


@dataclass
class _WindowedFault:
    """Shared time-window gating: active while ``start <= t < end``."""

    start: float = 0.0
    end: float = float("inf")

    def active(self, time: float) -> bool:
        return self.start <= time < self.end


# ---------------------------------------------------------------------------
# sensor faults
# ---------------------------------------------------------------------------


@dataclass
class DeadSensorFault(_WindowedFault):
    """A sensor that stops responding: reads NaN while active."""

    def __call__(self, time: float, reading: float) -> float:
        return float("nan") if self.active(time) else reading


@dataclass
class StuckSensorFault(_WindowedFault):
    """A sensor frozen at a value.

    ``value_k=None`` sticks at the first reading observed inside the
    window (the classic stuck-at-last-good-value failure); otherwise
    the sensor reports the given constant.
    """

    value_k: Optional[float] = None
    _held: Optional[float] = field(default=None, repr=False)

    def __call__(self, time: float, reading: float) -> float:
        if not self.active(time):
            self._held = None
            return reading
        if self.value_k is not None:
            return self.value_k
        if self._held is None:
            self._held = reading
        return self._held


@dataclass
class NoisySensorFault(_WindowedFault):
    """Excess Gaussian read noise (a degrading thermal diode)."""

    sigma_k: float = 2.0
    seed: int = 0
    _rng: Optional[np.random.Generator] = field(default=None, repr=False)

    def __call__(self, time: float, reading: float) -> float:
        if not self.active(time):
            return reading
        if self._rng is None:
            self._rng = np.random.default_rng(self.seed)
        return reading + float(self._rng.normal(0.0, self.sigma_k))


# ---------------------------------------------------------------------------
# cooling-loop faults
# ---------------------------------------------------------------------------


@dataclass
class PumpDegradationFault(_WindowedFault):
    """A worn pump delivering a fraction of the commanded flow.

    ``remaining_fraction=0.7`` models a 30 % head loss across every
    cavity.  The pump still draws its commanded electrical power — the
    degradation wastes energy as well as cooling.
    """

    remaining_fraction: float = 0.7

    def __post_init__(self) -> None:
        if not 0.0 < self.remaining_fraction <= 1.0:
            raise ValueError("remaining_fraction must be in (0, 1]")

    def apply(
        self, time: float, flows: Dict[str, float]
    ) -> Dict[str, float]:
        if not self.active(time):
            return flows
        return {name: f * self.remaining_fraction for name, f in flows.items()}


@dataclass
class CloggedCavityFault(_WindowedFault):
    """Particulate clogging one cavity's channels: local flow loss."""

    cavity: str = ""
    remaining_fraction: float = 0.5

    def __post_init__(self) -> None:
        if not self.cavity:
            raise ValueError("cavity name is required")
        if not 0.0 < self.remaining_fraction <= 1.0:
            raise ValueError("remaining_fraction must be in (0, 1]")

    def apply(
        self, time: float, flows: Dict[str, float]
    ) -> Dict[str, float]:
        if not self.active(time) or self.cavity not in flows:
            return flows
        flows = dict(flows)
        flows[self.cavity] *= self.remaining_fraction
        return flows


@dataclass
class DryoutFault(_WindowedFault):
    """Upstream pre-heating pushes a two-phase loop towards dry-out.

    Models a failing condenser / pre-heater: the refrigerant enters the
    cavity partially evaporated, at ``inlet_quality`` instead of the
    loop's design quality.  The fault does not touch the delivered flow
    (``apply`` is the identity) — it is consumed by
    :meth:`CompactThermalModel.install_cooling_faults`, which forces the
    elevated inlet quality into the evaporator march while the window is
    active.  ``cavity=None`` pre-heats every two-phase cavity.
    """

    cavity: Optional[str] = None
    inlet_quality: float = 0.85

    def __post_init__(self) -> None:
        if not 0.0 < self.inlet_quality < 1.0:
            raise ValueError("inlet_quality must be in (0, 1)")

    def apply(
        self, time: float, flows: Dict[str, float]
    ) -> Dict[str, float]:
        return flows


# ---------------------------------------------------------------------------
# actuator faults
# ---------------------------------------------------------------------------


@dataclass
class ActuatorLagFault:
    """DVFS commands reach the cores ``periods`` control periods late.

    Models a slow voltage regulator / PLL relock: the effective setting
    is the command issued ``periods`` steps ago (the oldest command is
    held until the queue fills).
    """

    periods: int = 1
    _queue: Optional[Deque[Dict[Hashable, int]]] = field(
        default=None, repr=False
    )

    def __post_init__(self) -> None:
        if self.periods < 1:
            raise ValueError("lag must be at least one period")

    def apply(
        self, settings: Dict[Hashable, int]
    ) -> Dict[Hashable, int]:
        if self._queue is None:
            self._queue = deque(maxlen=self.periods + 1)
        self._queue.append(dict(settings))
        return dict(self._queue[0])


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


@dataclass
class FaultSet:
    """The faults injected into one simulation run.

    Attributes
    ----------
    sensor_faults:
        Fault transform per instrumented block.
    flow_faults:
        Cooling-loop faults, applied in order to the commanded flows.
    actuator_lag:
        Optional DVFS actuation lag.
    """

    sensor_faults: Dict[BlockRef, object] = field(default_factory=dict)
    flow_faults: List[object] = field(default_factory=list)
    actuator_lag: Optional[ActuatorLagFault] = None

    def install_sensor_faults(self, sensors) -> None:
        """Attach the sensor faults to a ``TemperatureSensors`` layer."""
        for ref, fault in self.sensor_faults.items():
            sensors.install_fault(ref, fault)

    def effective_flows(
        self,
        time: float,
        commanded_ml_min: float,
        cavity_names: Sequence[str],
    ) -> Dict[str, float]:
        """Per-cavity flow actually delivered at ``time`` [ml/min]."""
        flows = {name: float(commanded_ml_min) for name in cavity_names}
        for fault in self.flow_faults:
            flows = fault.apply(time, flows)
        return flows

    def delayed_vf(
        self, settings: Dict[Hashable, int]
    ) -> Dict[Hashable, int]:
        """DVFS settings after actuation lag (identity without one)."""
        if self.actuator_lag is None:
            return settings
        return self.actuator_lag.apply(settings)

    def describe(self) -> str:
        """One-line summary for reports and logs."""
        parts: List[str] = []
        for ref, fault in self.sensor_faults.items():
            parts.append(f"{type(fault).__name__}@{ref[0]}/{ref[1]}")
        for fault in self.flow_faults:
            parts.append(type(fault).__name__)
        if self.actuator_lag is not None:
            parts.append(f"ActuatorLag({self.actuator_lag.periods})")
        return ", ".join(parts) if parts else "no faults"
