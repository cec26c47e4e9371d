"""Build and run experiments from declarative :class:`Scenario` specs.

The builders translate each spec node into the live object it
describes (``build_3d_mpsoc`` calls, workload generators, policy
classes, fault models, the compact thermal model), and :class:`Runner`
wires them into one :class:`~repro.core.simulator.SystemSimulator` run.
Every translation is deterministic and uses the constructors' own
defaults, so ``Runner(scenario).run()`` is **bitwise identical** to the
same ``SystemSimulator(stack, policy, trace, ...).run()`` wired by hand
(asserted on the Fig. 6 policy suite by the test suite).  Sweeps and
fault campaigns take scenarios only; the engine itself stays open to a
trace or stack no spec can express.
"""

from __future__ import annotations

import time as _time
from typing import Callable, Dict, Optional

from .. import __version__
from ..core.policies import (
    AirLoadBalancing,
    AirTDVFSLoadBalancing,
    LiquidFuzzy,
    LiquidLoadBalancing,
    Policy,
)
from ..core.simulator import SimulationResult, SystemSimulator
from ..geometry.channels import MicroChannelGeometry
from ..geometry.niagara import DIE_HEIGHT, DIE_WIDTH
from ..geometry.stack import CoolingMode, StackDesign, build_3d_mpsoc
from ..obs.manifest import build_manifest, write_manifest
from ..obs.metrics import get_registry
from ..obs.trace import get_tracer
from ..thermal.krylov import KrylovOptions
from ..thermal.model import CompactThermalModel
from ..workload.generators import SUITE_TRACES, THREADS_PER_CORE, idle_trace
from ..workload.traces import WorkloadTrace
from .cache import ResultCache
from .spec import (
    FaultSpec,
    PolicySpec,
    Scenario,
    SolverSpec,
    StackSpec,
    WorkloadSpec,
)

_GENERATORS: Dict[str, Callable[..., WorkloadTrace]] = {
    **{name: generator for name, (generator, _) in SUITE_TRACES.items()},
    "idle": idle_trace,
}


# ---------------------------------------------------------------------------
# builders: one spec node -> one live object
# ---------------------------------------------------------------------------


def build_stack(spec: StackSpec) -> StackDesign:
    """The :class:`StackDesign` a stack spec describes."""
    geometry: Optional[MicroChannelGeometry] = None
    if spec.channel is not None:
        geometry = MicroChannelGeometry(
            width=spec.channel.width,
            height=spec.channel.height,
            pitch=spec.channel.pitch,
            length=DIE_WIDTH,
            span=DIE_HEIGHT,
        )
    loop: Dict[str, object] = {}
    cooling = spec.cooling_backend
    if cooling is not None and cooling.backend == "two_phase":
        from .. import constants
        from ..materials.refrigerants import REFRIGERANTS
        from ..units import celsius_to_kelvin

        loop = {
            "refrigerant": REFRIGERANTS[cooling.refrigerant],
            "saturation_k": celsius_to_kelvin(cooling.saturation_c),
            "design_flux": cooling.design_flux_w_m2,
        }
        if geometry is None:
            # Table I channels (50 x 100 um) cannot pass an evaporating
            # refrigerant at pump flows — the two-phase pressure drop
            # collapses.  Default to the Section IV-B test-vehicle
            # cross-section instead; an explicit ChannelSpec overrides.
            geometry = MicroChannelGeometry(
                width=constants.EVAPORATOR_CHANNEL_WIDTH,
                height=constants.EVAPORATOR_CHANNEL_HEIGHT,
                pitch=constants.EVAPORATOR_CHANNEL_PITCH,
                length=DIE_WIDTH,
                span=DIE_HEIGHT,
            )
    return build_3d_mpsoc(
        spec.tiers,
        CoolingMode(spec.cooling),
        die_thickness=spec.die_thickness,
        wiring_thickness=spec.wiring_thickness,
        channel_geometry=geometry,
        lid_thickness=spec.lid_thickness,
        two_phase=spec.two_phase,
        tier_pattern=spec.tier_pattern,
        name=spec.name,
        **loop,
    )


def build_trace(spec: WorkloadSpec, stack: StackSpec) -> WorkloadTrace:
    """The workload trace a workload spec references.

    ``threads=None`` derives the hardware-thread count from the stack
    (4 SMT threads per core, the UltraSPARC T1 arrangement the legacy
    entry points hard-coded as ``32 * (tiers // 2)``).
    """
    threads = (
        spec.threads
        if spec.threads is not None
        else THREADS_PER_CORE * stack.core_count
    )
    if spec.source == "suite":  # the one trace of the suite, at its seed
        generator, offset = SUITE_TRACES[spec.name]
        seed = 0 if spec.seed is None else spec.seed
        return generator(threads, spec.duration, seed + offset)
    generator = _GENERATORS[spec.name]
    if spec.seed is None:
        return generator(threads=threads, duration=spec.duration)
    return generator(threads=threads, duration=spec.duration, seed=spec.seed)


def build_policy(spec: PolicySpec) -> Policy:
    """A fresh policy instance (policies are stateful across a run)."""
    if spec.name == "AC_LB":
        return AirLoadBalancing()
    if spec.name == "AC_TDVFS_LB":
        return AirTDVFSLoadBalancing()
    if spec.name == "LC_LB":
        if spec.flow_ml_min is not None:
            return LiquidLoadBalancing(flow_ml_min=spec.flow_ml_min)
        return LiquidLoadBalancing()
    return LiquidFuzzy(
        flow_control=spec.flow_control, dvfs_control=spec.dvfs_control
    )


def build_faults(spec: Optional[FaultSpec]):
    """A fresh (stateful) ``FaultSet`` from a declarative overlay."""
    if spec is None:
        return None
    # Imported lazily: the faults package pulls in the sweep layer,
    # which itself depends on this module.
    from ..faults.models import (
        ActuatorLagFault,
        CloggedCavityFault,
        DeadSensorFault,
        FaultSet,
        NoisySensorFault,
        PumpDegradationFault,
        StuckSensorFault,
    )

    def window(s) -> Dict[str, float]:
        return {
            "start": s.start,
            "end": float("inf") if s.end is None else s.end,
        }

    sensors = {}
    for sensor in spec.sensors:
        ref = (sensor.layer, sensor.block)
        if sensor.kind == "dead":
            sensors[ref] = DeadSensorFault(**window(sensor))
        elif sensor.kind == "stuck":
            sensors[ref] = StuckSensorFault(
                value_k=sensor.value_k, **window(sensor)
            )
        else:
            sensors[ref] = NoisySensorFault(
                sigma_k=sensor.sigma_k, seed=sensor.seed, **window(sensor)
            )
    flows = []
    for flow in spec.flows:
        if flow.kind == "pump-degradation":
            flows.append(
                PumpDegradationFault(
                    remaining_fraction=flow.remaining_fraction,
                    **window(flow),
                )
            )
        elif flow.kind == "dryout":
            from ..faults.models import DryoutFault

            kwargs = {} if flow.inlet_quality is None else {
                "inlet_quality": flow.inlet_quality
            }
            flows.append(
                DryoutFault(cavity=flow.cavity, **kwargs, **window(flow))
            )
        else:
            flows.append(
                CloggedCavityFault(
                    cavity=flow.cavity or "",
                    remaining_fraction=flow.remaining_fraction,
                    **window(flow),
                )
            )
    lag = (
        None
        if spec.actuator_lag_periods is None
        else ActuatorLagFault(periods=spec.actuator_lag_periods)
    )
    return FaultSet(sensor_faults=sensors, flow_faults=flows, actuator_lag=lag)


def build_model(
    scenario: Scenario,
    *,
    stack: Optional[StackDesign] = None,
) -> CompactThermalModel:
    """The compact thermal model a scenario's stack + solver spec define."""
    solver: SolverSpec = scenario.solver
    cooling = None
    cooling_spec = scenario.stack.cooling_backend
    if cooling_spec is not None:
        from ..cooling import CoolingConfig

        cooling = CoolingConfig(
            dynamic=cooling_spec.dynamic,
            inlet_quality=cooling_spec.inlet_quality,
            segments_per_row=cooling_spec.segments_per_row,
        )
    return CompactThermalModel(
        stack if stack is not None else build_stack(scenario.stack),
        nx=solver.nx,
        ny=solver.ny,
        solver=solver.backend,
        krylov=KrylovOptions(
            rtol=solver.rtol,
            atol=solver.atol,
            maxiter=solver.maxiter,
            drop_tol=solver.drop_tol,
            fill_factor=solver.fill_factor,
        ),
        cooling=cooling,
    )


class KeptModel:
    """The thermal model a process keeps between its jobs: a serial
    sweep, a sweep worker or a service worker."""

    def __init__(self) -> None:
        self.key: Optional[str] = None
        self.model: Optional[CompactThermalModel] = None

    def for_run(
        self, scenario: Scenario, cache: Optional[ResultCache] = None
    ) -> Optional[CompactThermalModel]:
        """The model ``scenario`` runs on: built on the first job of its
        model hash and kept for every later one.  Each run starts from a
        fresh run state (see :meth:`SystemSimulator.run
        <repro.core.simulator.SystemSimulator.run>`), so it equals a run
        on a model of its own, bitwise.  ``None`` when the result cache
        already holds the result, which needs no model."""
        if cache is not None and cache.path(scenario).exists():
            return None
        key = scenario.model_hash()
        if key != self.key or self.model is None:
            self.key, self.model = key, None  # free the old model first
            self.model = build_model(scenario)
        return self.model


def build_simulator(
    scenario: Scenario,
    *,
    model: Optional[CompactThermalModel] = None,
) -> SystemSimulator:
    """Wire a scenario into a ready-to-run :class:`SystemSimulator`.

    A pre-assembled ``model`` (a :class:`KeptModel` keeps one per
    :meth:`Scenario.model_hash`) supplies the stack as well — the hash
    guarantees it was built from an identical stack spec.
    """
    scenario.validate()
    stack = model.stack if model is not None else build_stack(scenario.stack)
    if model is None:
        model = build_model(scenario, stack=stack)
    return SystemSimulator(
        stack,
        build_policy(scenario.policy),
        build_trace(scenario.workload, scenario.stack),
        control_period=scenario.control.period,
        lb_threshold=scenario.control.lb_threshold,
        sensor_noise=scenario.control.sensor_noise,
        record_series=scenario.record_series,
        faults=build_faults(scenario.faults),
        model=model,
    )


# ---------------------------------------------------------------------------
# the runner
# ---------------------------------------------------------------------------


class Runner:
    """Execute one :class:`Scenario` end to end.

    Parameters
    ----------
    scenario:
        The experiment spec (validated on construction).
    model:
        Optional pre-assembled thermal model to reuse (must match the
        scenario's :meth:`~Scenario.model_hash`; sweeps and service
        workers pass their :class:`KeptModel`'s to share assembly
        across jobs).
    cache:
        Optional :class:`~repro.scenario.cache.ResultCache`.  When set,
        :meth:`run` first looks the scenario's content hash up on disk
        and only simulates on a miss, storing the fresh result after.

    Every :meth:`run` builds a run manifest (content hash, package
    version, solver backend, wall/CPU time, metric rollup) exposed as
    :attr:`last_manifest`, emitted to any attached trace sinks, and —
    when a cache is set — stored next to the cached result.
    """

    def __init__(
        self,
        scenario: Scenario,
        *,
        model: Optional[CompactThermalModel] = None,
        cache: Optional[ResultCache] = None,
    ) -> None:
        scenario.validate()
        self.scenario = scenario
        self._model = model
        self.cache = cache
        self.last_manifest: Optional[dict] = None

    def build_simulator(self) -> SystemSimulator:
        """The fully-wired simulator this runner would execute."""
        return build_simulator(self.scenario, model=self._model)

    def run(self) -> SimulationResult:
        """Run (or fetch from cache) and return the result."""
        tracer = get_tracer()
        registry = get_registry()
        metrics_start = registry.snapshot()
        wall_start = _time.perf_counter()
        cpu_start = _time.process_time()
        with tracer.span(
            "scenario.run",
            content_hash=self.scenario.content_hash(),
            label=self.scenario.label,
        ) as span:
            cached = False
            backend = self.scenario.solver.backend
            if self.cache is not None:
                result = self.cache.get(self.scenario)
                cached = result is not None
            else:
                result = None
            if result is None:
                simulator = self.build_simulator()
                result = simulator.run()
                backend = simulator.model.steady_backend()
                if self.cache is not None:
                    self.cache.put(self.scenario, result)
            if tracer.has_sinks:
                span.set(cached=cached, backend=backend)
        manifest = build_manifest(
            self.scenario,
            version=__version__,
            solver_backend=backend,
            wall_s=_time.perf_counter() - wall_start,
            cpu_s=_time.process_time() - cpu_start,
            metrics=registry.delta_since(metrics_start),
            cached=cached,
        )
        self.last_manifest = manifest
        if tracer.has_sinks:
            tracer.emit(manifest)
        if self.cache is not None:
            write_manifest(manifest, self.cache.manifest_path(self.scenario))
        return result


def run_scenario(
    scenario: Scenario,
    *,
    model: Optional[CompactThermalModel] = None,
    cache: Optional[ResultCache] = None,
) -> SimulationResult:
    """One-call convenience: ``Runner(scenario, ...).run()``."""
    return Runner(scenario, model=model, cache=cache).run()
