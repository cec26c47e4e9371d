"""The LC_FUZZY run-time thermal controller.

Reimplements the behaviour of the fuzzy controller of [15] (Sabry et al.,
ICCAD 2010) as used in Section IV-A: a Mamdani rule base that jointly

* tunes the per-cavity coolant **flow rate** from the stack's maximum
  sensor temperature, its trend, and the mean utilisation, and
* assigns per-core **DVFS settings** from each core's utilisation and
  temperature — throttling only cores that have little work, which is
  why the paper reports performance degradation below 0.01 %.

The flow command is quantised to a small number of pump settings; the
thermal stepper caches one LU factorisation per setting, keeping
closed-loop simulation cheap (see :mod:`repro.thermal.solver`).
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, List, Mapping, Optional, Tuple

import numpy as np

from .. import constants
from ..power.dvfs import NIAGARA_VF_TABLE, VFTable
from ..units import celsius_to_kelvin, kelvin_to_celsius
from .fuzzy import (
    FuzzyRule,
    FuzzyVariable,
    MamdaniController,
    TriangularMF,
    three_level_variable,
)


def _temperature_variable() -> FuzzyVariable:
    """Stack temperature variable [degC].

    The working band is placed below the 85 degC threshold so the
    controller saturates the pump *before* the threshold is reached; the
    equilibrium under sustained full load sits in the high-60s degC —
    the paper reports a 68 degC LC_FUZZY peak versus 56 degC at
    permanent maximum flow.
    """
    return FuzzyVariable(
        name="temperature",
        low=40.0,
        high=80.0,
        sets={
            "low": TriangularMF(40.0, 40.0, 64.0),
            "medium": TriangularMF(56.0, 67.0, 78.0),
            "high": TriangularMF(70.0, 80.0, 80.0),
        },
    )


def _trend_variable() -> FuzzyVariable:
    """Temperature trend variable [K/s]."""
    return FuzzyVariable(
        name="trend",
        low=-1.5,
        high=1.5,
        sets={
            "falling": TriangularMF(-1.5, -1.5, 0.0),
            "steady": TriangularMF(-0.5, 0.0, 0.5),
            "rising": TriangularMF(0.0, 1.5, 1.5),
        },
    )


def _level_variable(name: str) -> FuzzyVariable:
    """A generic [0, 1] output level."""
    return FuzzyVariable(
        name=name,
        low=0.0,
        high=1.0,
        sets={
            "low": TriangularMF(0.0, 0.0, 0.5),
            "medium": TriangularMF(0.25, 0.5, 0.75),
            "high": TriangularMF(0.5, 1.0, 1.0),
        },
    )


_FLOW_RULES = (
    FuzzyRule({"temperature": "high"}, ("flow", "high")),
    FuzzyRule({"temperature": "medium", "trend": "rising"}, ("flow", "high")),
    FuzzyRule({"temperature": "medium", "trend": "steady"}, ("flow", "medium")),
    FuzzyRule({"temperature": "medium", "trend": "falling"}, ("flow", "medium")),
    FuzzyRule({"temperature": "low", "utilisation": "high"}, ("flow", "medium")),
    FuzzyRule({"temperature": "low", "utilisation": "medium"}, ("flow", "low")),
    FuzzyRule({"temperature": "low", "utilisation": "low"}, ("flow", "low")),
    FuzzyRule(
        {"temperature": "low", "trend": "rising"}, ("flow", "medium"), weight=0.5
    ),
)

_SPEED_RULES = (
    FuzzyRule({"utilisation": "high"}, ("speed", "high")),
    FuzzyRule({"utilisation": "medium"}, ("speed", "high")),
    FuzzyRule(
        {"utilisation": "low", "temperature": "low"}, ("speed", "low")
    ),
    FuzzyRule(
        {"utilisation": "low", "temperature": "medium"}, ("speed", "low")
    ),
    FuzzyRule(
        {"utilisation": "low", "temperature": "high"}, ("speed", "low")
    ),
    FuzzyRule(
        {"utilisation": "high", "temperature": "high"},
        ("speed", "medium"),
        weight=0.6,
    ),
)


class FuzzyThermalController:
    """Joint flow-rate + DVFS fuzzy controller.

    Parameters
    ----------
    vf_table:
        Core operating points.
    flow_min_ml_min, flow_max_ml_min:
        Pump flow range per cavity [ml/min] (Table I defaults).
    flow_settings:
        Number of quantised pump settings across the range.
    trend_smoothing:
        Exponential smoothing factor of the temperature-trend estimate
        in [0, 1); higher = smoother.
    """

    def __init__(
        self,
        vf_table: VFTable = NIAGARA_VF_TABLE,
        flow_min_ml_min: float = constants.FLOW_RATE_MIN_ML_MIN,
        flow_max_ml_min: float = constants.FLOW_RATE_MAX_ML_MIN,
        flow_settings: int = 8,
        trend_smoothing: float = 0.5,
    ) -> None:
        if flow_settings < 2:
            raise ValueError("need at least two pump settings")
        if not 0.0 <= trend_smoothing < 1.0:
            raise ValueError("trend smoothing must be in [0, 1)")
        if flow_min_ml_min >= flow_max_ml_min:
            raise ValueError("flow range must be ordered")
        self.vf_table = vf_table
        self.flow_grid = np.linspace(
            flow_min_ml_min, flow_max_ml_min, flow_settings
        )
        self._flow_settings = self.flow_grid.tolist()
        self.trend_smoothing = trend_smoothing
        temperature = _temperature_variable()
        trend = _trend_variable()
        utilisation = three_level_variable("utilisation", 0.0, 1.0)
        self._flow_engine = MamdaniController(
            inputs=[temperature, trend, utilisation],
            outputs=[_level_variable("flow")],
            rules=_FLOW_RULES,
        )
        self._speed_engine = MamdaniController(
            inputs=[utilisation, temperature],
            outputs=[_level_variable("speed")],
            rules=_SPEED_RULES,
        )
        self._last_max_temp: Optional[float] = None
        self._last_time: Optional[float] = None
        self._trend = 0.0
        self._flow_boost = 1.0
        self.last_lost_sensors: List[Hashable] = []

    def reset(self) -> None:
        """Forget the trend estimator and degradation state."""
        self._last_max_temp = None
        self._last_time = None
        self._trend = 0.0
        self._flow_boost = 1.0
        self.last_lost_sensors = []

    # ------------------------------------------------------------------
    # graceful degradation
    # ------------------------------------------------------------------

    MAX_FLOW_BOOST = 8.0
    """Upper bound on the flow-loss compensation factor."""

    def observe_achieved_flow(self, commanded: float, achieved: float) -> None:
        """Flow-meter feedback: re-plan when the loop under-delivers.

        A worn pump or clogged cavity delivers less flow than
        commanded; the controller compensates by scaling its next flow
        command by the observed deficit (bounded), and drops the boost
        once the loop delivers again.  Without a flow fault the
        feedback equals the command and this is a no-op.
        """
        if not (
            math.isfinite(commanded)
            and math.isfinite(achieved)
            and commanded > 0.0
        ):
            return
        if achieved < 0.95 * commanded:
            ratio = commanded / max(achieved, 1e-9)
            self._flow_boost = min(
                self.MAX_FLOW_BOOST, max(self._flow_boost, ratio)
            )
        else:
            self._flow_boost = 1.0

    def _apply_flow_boost(self, flow: float) -> float:
        if self._flow_boost <= 1.0:
            return flow
        return self._nearest_setting(
            min(self._flow_settings[-1], flow * self._flow_boost)
        )

    # ------------------------------------------------------------------

    def _update_trend(self, time: float, max_temp_c: float) -> float:
        if self._last_max_temp is None or self._last_time is None:
            self._last_max_temp = max_temp_c
            self._last_time = time
            return 0.0
        dt = time - self._last_time
        if dt > 0.0:
            raw = (max_temp_c - self._last_max_temp) / dt
            s = self.trend_smoothing
            self._trend = s * self._trend + (1.0 - s) * raw
            self._last_max_temp = max_temp_c
            self._last_time = time
        return self._trend

    # Centroid defuzzification over the low/medium/high level sets can
    # only produce values in [1/6, 5/6] (the centroids of the shoulder
    # sets); stretch that achievable range back to [0, 1] so the
    # controller can actually command the pump's minimum and maximum.
    _CENTROID_LOW = 1.0 / 6.0
    _CENTROID_HIGH = 5.0 / 6.0

    def _normalise_level(self, level: float) -> float:
        span = self._CENTROID_HIGH - self._CENTROID_LOW
        return min(1.0, max(0.0, (level - self._CENTROID_LOW) / span))

    def quantise_flow(self, level: float) -> float:
        """Map a defuzzified flow level to the nearest pump setting [ml/min]."""
        level = self._normalise_level(level)
        grid = self._flow_settings
        return self._nearest_setting(grid[0] + level * (grid[-1] - grid[0]))

    def _nearest_setting(self, target: float) -> float:
        distances = [abs(setting - target) for setting in self._flow_settings]
        return self._flow_settings[distances.index(min(distances))]

    def speed_to_vf_index(self, level: float) -> int:
        """Map a defuzzified speed level to a VF table index (0 = fastest)."""
        # A normalised level lies in [0, 1]: the index needs no clamp.
        level = self._normalise_level(level)
        return round((1.0 - level) * self.vf_table.lowest_index)

    def decide(
        self,
        time: float,
        temperatures_k: Mapping[Hashable, float],
        utilisations: Mapping[Hashable, float],
    ) -> Tuple[float, Dict[Hashable, int]]:
        """One control step.

        Parameters
        ----------
        time:
            Simulation time [s].
        temperatures_k:
            Latest sensor reading per core [K].
        utilisations:
            Current utilisation per core in [0, 1].

        Returns
        -------
        tuple
            ``(flow_ml_min, vf_settings)`` — the quantised per-cavity
            flow command and the VF index per core.

        Notes
        -----
        Non-finite readings mark lost sensors (dead thermal diodes
        read NaN, see :mod:`repro.faults.models`).  The controller
        degrades gracefully instead of crashing: any sensor loss forces
        the fail-safe maximum flow, blind cores are throttled to the
        lowest operating point, and the sighted cores still get normal
        fuzzy DVFS from the surviving readings.  The lost sensors of
        the latest step are exposed as ``last_lost_sensors``.
        """
        if temperatures_k.keys() != utilisations.keys():
            raise ValueError("temperature and utilisation cores must match")
        valid = {core: t for core, t in temperatures_k.items() if math.isfinite(t)}
        lost = [core for core in temperatures_k if core not in valid]
        self.last_lost_sensors = lost
        if not valid:
            # Total sensor loss: max flow, everything throttled.
            lowest = self.vf_table.lowest_index
            return float(self.flow_grid[-1]), dict.fromkeys(temperatures_k, lowest)
        cores = list(valid)
        max_temp_c = kelvin_to_celsius(max(valid.values()))
        mean_util = sum(utilisations.values()) / len(utilisations)
        flow_inputs = {
            "temperature": max_temp_c,
            "trend": self._update_trend(time, max_temp_c),
            "utilisation": mean_util,
        }
        speed_inputs = {
            "utilisation": [utilisations[core] for core in cores],
            "temperature": [kelvin_to_celsius(t) for t in valid.values()],
        }
        flow_level = self._flow_engine.infer(flow_inputs)["flow"]
        # One batched inference call for all sighted cores (bitwise
        # identical to the per-core loop, see
        # MamdaniController.infer_many).
        speeds = self._speed_engine.infer_many(speed_inputs)["speed"]
        flow = self._apply_flow_boost(self.quantise_flow(flow_level))
        vf: Dict[Hashable, int] = {
            core: self.speed_to_vf_index(speed)
            for core, speed in zip(cores, speeds.tolist())
        }
        for core in lost:
            vf[core] = self.vf_table.lowest_index
        # Hard safety nets: max flow above the threshold, and whenever
        # a sensor is lost (the blind spot could be the hottest core).
        if lost or max_temp_c >= constants.THERMAL_THRESHOLD_C:
            flow = float(self.flow_grid[-1])
        return flow, vf


THERMAL_THRESHOLD_K = celsius_to_kelvin(constants.THERMAL_THRESHOLD_C)
"""The 85 degC threshold in kelvin, exported for policy code."""
