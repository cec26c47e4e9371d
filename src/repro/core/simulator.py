"""Closed-loop system simulation: workload → OS → power → thermal → policy.

This is the experimental harness of Section IV-A.  Each run couples

* a workload trace (per-thread utilisation, 1 s intervals),
* the load-balancing scheduler (thread migration across cores),
* the block-level power model (dynamic + temperature-dependent leakage),
* the compact thermal model of the chosen stack (air or liquid), and
* a run-time management policy (AC_LB, AC_TDVFS_LB, LC_LB, LC_FUZZY)

with the 100 ms sensor/control period of the paper.  Simulations start
from the steady state of the first workload interval ("we initialize the
simulations with steady state temperature values") and account chip
energy, pumping energy, hot-spot statistics and performance degradation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from .. import constants
from ..geometry.stack import CoolingMode, StackDesign
from ..hydraulics.pump import PumpModel, TABLE_I_PUMP
from ..obs.metrics import get_registry
from ..obs.trace import get_tracer
from ..power.model import PowerModel
from ..sched.loadbalance import LoadBalancer
from ..sched.metrics import PerformanceTracker
from ..thermal.diagnostics import ThermalInputError, validate_positive_scalar
from ..thermal.field import BlockReduction
from ..thermal.model import CompactThermalModel
from ..thermal.sensors import TemperatureSensors
from ..thermal.solver import TransientStepper
from ..units import kelvin_to_celsius
from ..workload.traces import WorkloadTrace
from .energy import EnergyAccount
from .hotspots import HotSpotStats
from .policies import Policy

if TYPE_CHECKING:  # imported lazily to avoid a core <-> faults cycle
    from ..faults.models import FaultSet

BlockRef = Tuple[str, str]

DEFAULT_NX = 23
DEFAULT_NY = 20
"""Default thermal-grid resolution of a closed-loop run built by hand.

:class:`~repro.scenario.SolverSpec` carries the same defaults for runs
described by a scenario.
"""


@dataclass
class SimulationResult:
    """Outcome of one closed-loop run.

    All quantities refer to one stack over the full trace duration.
    """

    policy: str
    workload: str
    duration: float
    peak_temperature_c: float
    chip_energy_j: float
    pump_energy_j: float
    hotspot_percent_avg: float
    hotspot_percent_any: float
    degradation_percent: float
    mean_flow_ml_min: float
    series: Dict[str, np.ndarray] = field(default_factory=dict)
    dryout_margin: Optional[float] = None
    """Worst-case two-phase dry-out margin, ``1 - max outlet quality``.

    ``None`` on stacks without dynamic two-phase cooling; ``0.0`` means
    the evaporator marched into dry-out at some point of the run.
    """

    @property
    def total_energy_j(self) -> float:
        """System energy: chip + cooling network [J]."""
        return self.chip_energy_j + self.pump_energy_j


class SystemSimulator:
    """Runs one (stack, policy, workload) combination.

    Parameters
    ----------
    stack:
        Stack design; its cooling mode must match the policy's.
    policy:
        Run-time management policy.
    trace:
        Workload trace; must provide
        ``threads_per_core * cores`` hardware threads.
    pump:
        Pumping-network power model (liquid mode).
    nx, ny:
        Thermal grid resolution.
    control_period:
        Sensor/actuation period [s] (paper: 100 ms).
    lb_threshold:
        Queue-difference threshold of the load balancer.
    sensor_noise:
        Gaussian sensor noise sigma [K].
    record_series:
        Keep per-control-period time series (time, max temperature,
        flow, chip power) in the result.
    faults:
        Optional :class:`~repro.faults.models.FaultSet` injected into
        the run: sensor faults are installed into the sensor layer,
        cooling-loop faults bend the delivered flow away from the
        command (with the shortfall reported back to the policy via
        :meth:`Policy.observe_flow`), and actuator lag delays the DVFS
        settings reaching the cores.
    model:
        Pre-assembled :class:`CompactThermalModel` to reuse instead of
        assembling a fresh one (must have been built for ``stack``;
        ``nx``/``ny`` are ignored then).  Simulation sweeps pass the
        model their scenario jobs of one
        :meth:`~repro.scenario.Scenario.model_hash` share, so repeated
        short jobs skip the assembly cost entirely — warm factor caches
        carry over and stay valid because they are keyed by flow
        signature.
    """

    def __init__(
        self,
        stack: StackDesign,
        policy: Policy,
        trace: WorkloadTrace,
        *,
        pump: PumpModel = TABLE_I_PUMP,
        nx: int = DEFAULT_NX,
        ny: int = DEFAULT_NY,
        control_period: float = constants.SENSOR_PERIOD,
        lb_threshold: float = 0.25,
        sensor_noise: float = 0.0,
        record_series: bool = False,
        faults: Optional["FaultSet"] = None,
        model: Optional[CompactThermalModel] = None,
    ) -> None:
        if policy.cooling is not stack.cooling_mode:
            raise ValueError(
                f"policy {policy.name} expects {policy.cooling.value} cooling "
                f"but the stack is {stack.cooling_mode.value}-cooled"
            )
        control_period = validate_positive_scalar(
            control_period, "control period"
        )
        steps = round(trace.period / control_period)
        if steps < 1 or abs(steps * control_period - trace.period) > 1e-9:
            raise ValueError(
                "the trace period must be a multiple of the control period"
            )
        self.stack = stack
        self.policy = policy
        self.trace = trace
        self.pump = pump
        self.control_period = control_period
        self.record_series = record_series

        self.faults = faults

        if model is None:
            model = CompactThermalModel(stack, nx=nx, ny=ny)
        elif model.stack is not stack:
            raise ValueError(
                "the provided thermal model was assembled for a "
                "different stack design"
            )
        self.model = model
        self.power_model = PowerModel(stack)
        self.core_refs: List[BlockRef] = self.power_model.core_refs
        self.sensors = TemperatureSensors(
            self.model, refs=self.core_refs, noise_sigma=sensor_noise
        )
        self._cavity_names = list(self.model.cooled_cavity_names)
        if faults is not None:
            faults.install_sensor_faults(self.sensors)
            self.model.install_cooling_faults(faults.flow_faults)
        else:
            # A pre-assembled model may be shared across runs; clear any
            # cooling faults a previous (faulted) run installed.
            self.model.install_cooling_faults([])
        if trace.threads < len(self.core_refs):
            raise ValueError(
                f"trace provides {trace.threads} threads for "
                f"{len(self.core_refs)} cores"
            )
        self.balancer = LoadBalancer(
            cores=len(self.core_refs),
            threads=trace.threads,
            threshold=lb_threshold,
        )
        # A hardware thread at 100 % utilisation occupies one SMT share of
        # a core's pipeline (4 threads per UltraSPARC T1 core), so its
        # offered load in core-seconds per second is cores/threads.
        self._thread_share = len(self.core_refs) / trace.threads
        self._all_masks = self.model.block_masks()
        self._block_reduction = BlockReduction(self.model.grid, self._all_masks)
        self._block_order = self.model.block_order

    # ------------------------------------------------------------------

    def _pump_power(self, flow_ml_min: Optional[float]) -> float:
        if self.stack.cooling_mode is CoolingMode.AIR or flow_ml_min is None:
            return 0.0
        return self.pump.power(flow_ml_min, self.stack.cavity_count)

    def _initial_state(self) -> TransientStepper:
        """Steady state of the first workload interval at nominal settings."""
        demands = self.balancer.core_demands(
            self.trace.interval(0) * self._thread_share
        )
        utils = {
            ref: float(min(1.0, d)) for ref, d in zip(self.core_refs, demands)
        }
        powers = self.power_model.block_powers(utils)
        initial = self.model.steady_state(powers)
        return TransientStepper(self.model, self.control_period, initial)

    def run(self) -> SimulationResult:
        """Execute the full trace and return the aggregated result."""
        with get_tracer().span(
            "simulator.run",
            policy=self.policy.name,
            workload=self.trace.name,
            duration=self.trace.duration,
        ):
            return self._run()

    def _run(self) -> SimulationResult:
        tracer = get_tracer()
        registry = get_registry()
        step_counter = registry.counter("sim.steps")
        throttle_counter = registry.counter("sim.dvfs_throttled_core_steps")
        temp_hist = registry.histogram("sim.max_temperature_c")
        flow_hist = registry.histogram("sim.flow_ml_min")
        power_hist = registry.histogram("sim.chip_power_w")
        self.policy.reset()
        self.model.reset_cooling_state()
        stepper = self._initial_state()
        energy = EnergyAccount()
        hotspots = HotSpotStats()
        perf = PerformanceTracker(cores=len(self.core_refs))
        dt = self.control_period
        steps_per_interval = int(round(self.trace.period / dt))
        vf_table = self.power_model.vf_table
        # np.take's clip mode is VFTable.clamp for integer settings.
        speed_of = np.array([vf_table.speed_fraction(i) for i in range(len(vf_table))])

        utils: Dict[BlockRef, float] = {ref: 0.0 for ref in self.core_refs}
        flow_sum = 0.0
        flow_samples = 0
        series: Dict[str, List[float]] = {
            "time": [],
            "max_temperature_c": [],
            "flow_ml_min": [],
            "chip_power_w": [],
        }

        time = 0.0
        for interval in range(self.trace.intervals):
            demand_rates = self.balancer.core_demands(
                self.trace.interval(interval) * self._thread_share
            )
            for _ in range(steps_per_interval):
                with tracer.span("simulator.step") as step_span:
                    readings = self.sensors.read(stepper.state, time)
                    if self.faults is not None and self.faults.sensor_faults:
                        # Hot-spot statistics track the physical die, not
                        # the (possibly dead/stuck) sensor outputs the
                        # policy is steering by.
                        physical = self.sensors.true_values(stepper.state)
                    else:
                        physical = readings
                    with tracer.span("policy.decide") as policy_span:
                        decision = self.policy.decide(time, readings, utils)
                        if tracer.has_sinks:
                            policy_span.set(
                                policy=self.policy.name,
                                flow_ml_min=decision.flow_ml_min,
                                dvfs_settings=len(decision.vf_settings),
                            )
                    if decision.flow_ml_min is not None:
                        commanded = float(decision.flow_ml_min)
                        if not math.isfinite(commanded) or commanded <= 0.0:
                            raise ThermalInputError(
                                f"policy {self.policy.name} commanded an "
                                f"invalid flow rate {commanded!r}"
                            )
                        flow = self.pump.clamp_flow(commanded)
                        if self.faults is not None and self.faults.flow_faults:
                            delivered = self.faults.effective_flows(
                                time, flow, self._cavity_names
                            )
                            for name, value in delivered.items():
                                self.model.set_cavity_flow(name, value)
                            achieved = (
                                sum(delivered.values()) / len(delivered)
                                if delivered
                                else flow
                            )
                        else:
                            self.model.set_flow(flow)
                            achieved = flow
                        self.policy.observe_flow(flow, achieved)
                        flow_sum += flow
                        flow_samples += 1
                        flow_hist.observe(flow)
                    else:
                        flow = None

                    vf_settings = decision.vf_settings
                    if self.faults is not None:
                        vf_settings = self.faults.delayed_vf(vf_settings)
                    speeds = np.take(
                        speed_of,
                        [vf_settings.get(ref, 0) for ref in self.core_refs],
                        mode="clip",
                    )
                    executed = perf.record(demand_rates, speeds, dt)
                    # fmin(b, 1) is min(1.0, b), NaN included.
                    busy = np.fmin(executed / (speeds * dt), 1.0)
                    utils = dict(zip(self.core_refs, busy.tolist()))

                    block_temps = self._block_reduction.reduce_dict(
                        stepper.state.values, reduce="mean"
                    )
                    powers = self.power_model.block_powers(
                        utils, vf_settings, block_temps
                    )
                    chip_w = sum(powers.values())
                    pump_w = self._pump_power(flow)

                    packed = np.array(
                        [powers.get(ref, 0.0) for ref in self._block_order]
                    )
                    # Quasi-static two-phase coupling: re-march the cooling
                    # backends against this step's flow/flux before the
                    # thermal step consumes the updated saturation anchors.
                    self.model.update_cooling(packed, time)
                    stepper.step_packed(packed)
                    time += dt
                    energy.add(chip_w, pump_w, dt)
                    hotspots.update(physical, dt)
                    max_temp_c = kelvin_to_celsius(max(physical.values()))
                    step_counter.inc()
                    temp_hist.observe(max_temp_c)
                    power_hist.observe(chip_w)
                    throttled = sum(map(bool, vf_settings.values()))
                    if throttled:
                        throttle_counter.inc(throttled)
                    if tracer.has_sinks:
                        step_span.set(
                            t=round(time, 6),
                            max_temperature_c=round(max_temp_c, 3),
                            flow_ml_min=flow,
                            chip_power_w=round(chip_w, 3),
                            dvfs_throttled=throttled,
                        )
                    if self.record_series:
                        series["time"].append(time)
                        series["max_temperature_c"].append(max_temp_c)
                        series["flow_ml_min"].append(flow if flow is not None else 0.0)
                        series["chip_power_w"].append(chip_w)

        mean_flow = flow_sum / flow_samples if flow_samples else 0.0
        return SimulationResult(
            policy=self.policy.name,
            workload=self.trace.name,
            duration=time,
            peak_temperature_c=kelvin_to_celsius(hotspots.peak_k),
            chip_energy_j=energy.chip_j,
            pump_energy_j=energy.pump_j,
            hotspot_percent_avg=hotspots.percent_avg,
            hotspot_percent_any=hotspots.percent_any,
            degradation_percent=perf.degradation_percent(),
            mean_flow_ml_min=mean_flow,
            series={k: np.asarray(v) for k, v in series.items()}
            if self.record_series
            else {},
            dryout_margin=self.model.dryout_margin(),
        )
