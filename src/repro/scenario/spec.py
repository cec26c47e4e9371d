"""Declarative experiment specifications.

A :class:`Scenario` is a frozen, serializable description of one
closed-loop experiment — the same role the stack/floorplan description
files play in 3D-ICE-style tools.  Every knob the paper's experiments
turn (Figs. 6-8: stack geometry, cavity/channel configuration, workload
generator, run-time policy, solver backend, fault set, horizon) is a
plain-data field, so a scenario can be

* round-tripped through JSON (``to_json`` / ``from_json``),
* validated with actionable, field-path error messages,
* hashed into a stable content key (:meth:`Scenario.content_hash`)
  that is identical across processes, fork/spawn boundaries and
  platforms — the key the on-disk result cache and the shared fan-out
  model cache are built on.

The spec layer deliberately references *builders* (tier counts,
generator names, policy names) instead of pickling live objects: a JSON
file fully determines the experiment, which is what lets one format be
sharded, queued, cached and served.
"""

from __future__ import annotations

import difflib
import hashlib
import json
from dataclasses import dataclass, field, fields, is_dataclass, replace
from functools import lru_cache
from pathlib import Path
from typing import (
    Any,
    Dict,
    FrozenSet,
    Mapping,
    NamedTuple,
    Optional,
    Tuple,
    Union,
    get_args,
    get_origin,
    get_type_hints,
)

from .. import constants
from ..thermal.krylov import SOLVER_CHOICES

SCHEMA_VERSION = 1
"""Bumped on incompatible spec-format changes; part of the hash."""

POLICY_CHOICES = ("AC_LB", "AC_TDVFS_LB", "LC_LB", "LC_FUZZY")
COOLING_CHOICES = ("air", "liquid")
WORKLOAD_SOURCES = ("suite", "generator")
SUITE_WORKLOADS = ("web", "database", "multimedia", "max-utilisation")
GENERATOR_WORKLOADS = SUITE_WORKLOADS + ("idle",)
SOLVER_BACKENDS = SOLVER_CHOICES
SENSOR_FAULT_KINDS = ("dead", "stuck", "noisy")
FLOW_FAULT_KINDS = ("pump-degradation", "clogged-cavity", "dryout")
COOLING_BACKEND_CHOICES = ("single_phase_liquid", "air_sink", "two_phase")
REFRIGERANT_CHOICES = ("R134a", "R236fa", "R245fa")

_AIR_POLICIES = ("AC_LB", "AC_TDVFS_LB")


class ScenarioError(ValueError):
    """A scenario spec is malformed; the message names the bad field."""


# ---------------------------------------------------------------------------
# parsing helpers
# ---------------------------------------------------------------------------


def _suggest(value: str, choices) -> str:
    close = difflib.get_close_matches(str(value), list(choices), n=1)
    hint = f" (did you mean {close[0]!r}?)" if close else ""
    return f"choose from {sorted(choices)}{hint}"


def _require_mapping(data: Any, path: str) -> Mapping:
    if not isinstance(data, Mapping):
        raise ScenarioError(
            f"{path}: expected an object/mapping, got {type(data).__name__}"
        )
    return data


def _typed(
    data: Mapping,
    key: str,
    kinds: tuple,
    path: str,
    *,
    required: bool = False,
    default: Any = None,
) -> Any:
    if key not in data or data[key] is None:
        if required:
            raise ScenarioError(f"{path}.{key}: field is required")
        return default
    value = data[key]
    if bool in kinds and isinstance(value, bool):
        return value
    if isinstance(value, bool) and bool not in kinds:
        raise ScenarioError(
            f"{path}.{key}: expected {'/'.join(k.__name__ for k in kinds)}, "
            f"got bool"
        )
    if float in kinds and isinstance(value, int):
        return float(value)
    if not isinstance(value, kinds):
        raise ScenarioError(
            f"{path}.{key}: expected {'/'.join(k.__name__ for k in kinds)}, "
            f"got {type(value).__name__} ({value!r})"
        )
    return value


class _Field(NamedTuple):
    """How one spec field is parsed, resolved from its annotation."""

    name: str
    kind: str
    """``"leaf"``, ``"spec"``, ``"optional-spec"`` or ``"specs"``."""
    arg: Any
    """A leaf's accepted types; the nested spec class otherwise."""
    default: Any
    required: bool


@lru_cache(maxsize=None)
def _field_plan(cls) -> Tuple[FrozenSet[str], Tuple[_Field, ...]]:
    """``cls``'s field names and the parse step of each field, in order."""
    hints = get_type_hints(cls)
    plan = []
    for spec_field in fields(cls):
        hint = hints[spec_field.name]
        optional = get_origin(hint) is Union  # Optional[X]
        if optional:
            (hint,) = [arg for arg in get_args(hint) if arg is not type(None)]
        if is_dataclass(hint):
            kind = "optional-spec" if optional else "spec"
        elif get_origin(hint) is tuple:  # Tuple[Spec, ...]
            kind, hint = "specs", get_args(hint)[0]
        else:
            kind, hint = "leaf", (hint,)
        plan.append(
            _Field(
                spec_field.name,
                kind,
                hint,
                spec_field.default,
                spec_field.metadata.get("required", False),
            )
        )
    return frozenset(step.name for step in plan), tuple(plan)


def _from_plain(cls, data: Any, path: str, extra: FrozenSet[str] = frozenset()):
    """Parse one spec node of type ``cls`` from plain data at ``path``.

    Keys outside ``cls``'s fields (and ``extra``) are rejected with a
    suggestion.  Each field is parsed by its annotation: a leaf through
    :func:`_typed`, a nested spec recursively (an absent one keeps its
    default, ``None`` too when it is optional), and a tuple of specs
    item by item under ``path.name[i]``.  A validation error of the
    built node is re-raised under ``path``.
    """
    data = _require_mapping(data, path)
    names, plan = _field_plan(cls)
    for key in data:
        if key not in names and key not in extra:
            raise ScenarioError(
                f"{path}.{key}: unknown field; {_suggest(key, names | extra)}"
            )
    kwargs: Dict[str, Any] = {}
    for name, kind, arg, default, required in plan:
        if kind == "leaf":
            kwargs[name] = _typed(
                data, name, arg, path, required=required, default=default
            )
            continue
        value = data.get(name)
        if kind == "specs":
            items = value or ()
            if not isinstance(items, (list, tuple)):
                raise ScenarioError(f"{path}.{name}: expected a list")
            kwargs[name] = tuple(
                _from_plain(arg, item, f"{path}.{name}[{index}]")
                for index, item in enumerate(items)
            )
        elif value is None and (kind == "optional-spec" or name not in data):
            kwargs[name] = default
        else:
            kwargs[name] = _from_plain(arg, value, f"{path}.{name}")
    try:
        return cls(**kwargs)
    except ScenarioError as exc:
        message = str(exc)
        prefix = f"{path}." if not message.startswith(path) else ""
        raise ScenarioError(f"{prefix}{message}") from None


def _check_choice(value: str, choices, field_name: str) -> None:
    if value not in choices:
        raise ScenarioError(
            f"{field_name}: unknown value {value!r}; "
            f"{_suggest(value, choices)}"
        )


def _check_positive(value: float, field_name: str) -> None:
    if not value > 0.0:
        raise ScenarioError(f"{field_name}: must be positive, got {value!r}")


# ---------------------------------------------------------------------------
# spec tree
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChannelSpec:
    """Micro-channel cavity cross-section (Table I geometry defaults).

    Channel length and span follow the die outline at build time, so the
    spec only pins the etched cross-section.
    """

    width: float = constants.CHANNEL_WIDTH
    height: float = constants.INTERTIER_THICKNESS
    pitch: float = constants.CHANNEL_PITCH

    def __post_init__(self) -> None:
        _check_positive(self.width, "width")
        _check_positive(self.height, "height")
        _check_positive(self.pitch, "pitch")
        if self.width >= self.pitch:
            raise ScenarioError(
                f"width: channel width {self.width!r} must be smaller than "
                f"the pitch {self.pitch!r}"
            )


@dataclass(frozen=True)
class CoolingSpec:
    """Cooling-backend selection and its two-phase loop parameters.

    Nested (optionally) inside :class:`StackSpec`; an absent block
    keeps the legacy behaviour — and the serialized payload, so
    ``content_hash`` / ``model_hash`` of pre-existing specs stay
    byte-identical (see :func:`_stack_plain`).

    Attributes
    ----------
    backend:
        Cooling technology of the stack, one of
        :data:`COOLING_BACKEND_CHOICES`; it must match the stack's
        cooling mode.
    refrigerant:
        Working fluid of the two-phase loop (ASHRAE designation).
    saturation_c:
        Inlet saturation temperature of the loop [degC].
    design_flux_w_m2:
        Footprint heat flux at which the boiling HTC is evaluated.
    dynamic:
        Let run-time flow commands re-march the evaporator and move
        the saturation anchors (the §III coupling); ``False`` keeps
        the static anchor.
    inlet_quality:
        Vapour quality at the cavity inlet [-].
    segments_per_row:
        Marching segments per grid column (axial resolution).
    """

    backend: str = "two_phase"
    refrigerant: str = "R134a"
    saturation_c: float = 30.0
    design_flux_w_m2: float = 3.0e5
    dynamic: bool = True
    inlet_quality: float = 0.03
    segments_per_row: int = 4

    def __post_init__(self) -> None:
        _check_choice(self.backend, COOLING_BACKEND_CHOICES, "backend")
        _check_choice(self.refrigerant, REFRIGERANT_CHOICES, "refrigerant")
        if not -100.0 < self.saturation_c < 150.0:
            raise ScenarioError(
                f"saturation_c: implausible saturation temperature "
                f"{self.saturation_c!r} degC"
            )
        _check_positive(self.design_flux_w_m2, "design_flux_w_m2")
        if not 0.0 <= self.inlet_quality < 1.0:
            raise ScenarioError(
                f"inlet_quality: must be in [0, 1), "
                f"got {self.inlet_quality!r}"
            )
        if self.segments_per_row < 1:
            raise ScenarioError(
                f"segments_per_row: must be >= 1, "
                f"got {self.segments_per_row!r}"
            )


@dataclass(frozen=True)
class StackSpec:
    """The 3D stack: tier count/order, cooling technology, cavity config."""

    tiers: int = 2
    cooling: str = "liquid"
    two_phase: bool = False
    tier_pattern: Optional[str] = None
    die_thickness: float = constants.DIE_THICKNESS
    wiring_thickness: float = 20e-6
    lid_thickness: float = 0.3e-3
    channel: Optional[ChannelSpec] = None
    cooling_backend: Optional[CoolingSpec] = None
    name: Optional[str] = None

    def __post_init__(self) -> None:
        if self.tiers < 2 or self.tiers % 2 != 0:
            raise ScenarioError(
                f"tiers: must be an even number >= 2, got {self.tiers!r}"
            )
        _check_choice(self.cooling, COOLING_CHOICES, "cooling")
        if self.two_phase and self.cooling != "liquid":
            raise ScenarioError(
                "two_phase: two-phase cavities require liquid cooling"
            )
        if self.cooling_backend is not None:
            backend = self.cooling_backend.backend
            if backend == "two_phase" and not self.two_phase:
                raise ScenarioError(
                    "cooling_backend.backend: the two_phase backend "
                    "requires two_phase=true on the stack"
                )
            if backend == "single_phase_liquid" and (
                self.cooling != "liquid" or self.two_phase
            ):
                raise ScenarioError(
                    "cooling_backend.backend: single_phase_liquid requires "
                    "a single-phase liquid-cooled stack"
                )
            if backend == "air_sink" and self.cooling != "air":
                raise ScenarioError(
                    "cooling_backend.backend: air_sink requires "
                    "cooling='air'"
                )
        if self.tier_pattern is not None:
            if len(self.tier_pattern) != self.tiers:
                raise ScenarioError(
                    f"tier_pattern: length {len(self.tier_pattern)} does not "
                    f"match tiers={self.tiers}"
                )
            if set(self.tier_pattern) - {"c", "m"}:
                raise ScenarioError(
                    f"tier_pattern: may only contain 'c' and 'm', "
                    f"got {self.tier_pattern!r}"
                )
        _check_positive(self.die_thickness, "die_thickness")
        _check_positive(self.wiring_thickness, "wiring_thickness")
        _check_positive(self.lid_thickness, "lid_thickness")

    @property
    def core_count(self) -> int:
        """Cores on the stack (8 per core tier)."""
        pattern = self.tier_pattern or "cm" * (self.tiers // 2)
        return 8 * pattern.count("c")


@dataclass(frozen=True)
class WorkloadSpec:
    """Workload reference: a named generator, horizon and seed.

    ``source="suite"`` draws the trace from
    :func:`repro.workload.generators.paper_workload_suite` (the Fig. 6/7
    benchmark set, one base seed for the whole suite); ``"generator"``
    calls the named trace generator directly.  ``threads=None`` derives
    the hardware-thread count from the stack (4 SMT threads per core).
    ``seed=None`` keeps each generator's published default.
    """

    name: str = "database"
    source: str = "suite"
    threads: Optional[int] = None
    duration: int = 60
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        _check_choice(self.source, WORKLOAD_SOURCES, "source")
        choices = (
            SUITE_WORKLOADS if self.source == "suite" else GENERATOR_WORKLOADS
        )
        _check_choice(self.name, choices, "name")
        if self.threads is not None and self.threads < 1:
            raise ScenarioError(
                f"threads: must be >= 1, got {self.threads!r}"
            )
        if self.duration < 1:
            raise ScenarioError(
                f"duration: must be >= 1 second, got {self.duration!r}"
            )


@dataclass(frozen=True)
class PolicySpec:
    """Run-time management policy and its knobs.

    ``flow_ml_min`` fixes LC_LB's constant flow (default: the pump
    maximum); ``flow_control``/``dvfs_control`` are the LC_FUZZY
    ablation switches of Section IV-A.
    """

    name: str = "LC_FUZZY"
    flow_ml_min: Optional[float] = None
    flow_control: bool = True
    dvfs_control: bool = True

    def __post_init__(self) -> None:
        _check_choice(self.name, POLICY_CHOICES, "name")
        if self.flow_ml_min is not None:
            _check_positive(self.flow_ml_min, "flow_ml_min")
            if self.name != "LC_LB":
                raise ScenarioError(
                    "flow_ml_min: a fixed flow rate only applies to LC_LB"
                )
        if not self.flow_control and not self.dvfs_control:
            raise ScenarioError(
                "flow_control: at least one LC_FUZZY control knob "
                "(flow_control / dvfs_control) must stay enabled"
            )

    @property
    def cooling(self) -> str:
        """Cooling mode this policy requires."""
        return "air" if self.name in _AIR_POLICIES else "liquid"


@dataclass(frozen=True)
class SolverSpec:
    """Thermal solver backend, grid resolution and tolerances.

    Mirrors :class:`repro.thermal.model.CompactThermalModel` /
    :class:`repro.thermal.krylov.KrylovOptions` defaults; ``backend``
    is one of :data:`repro.thermal.krylov.SOLVER_CHOICES` (``"auto"``,
    ``"direct"``, ``"iterative"`` or ``"amg"``).
    """

    backend: str = "auto"
    nx: int = 23
    ny: int = 20
    rtol: float = 1e-10
    atol: float = 0.0
    maxiter: int = 2000
    drop_tol: float = 1e-3
    fill_factor: float = 4.0

    def __post_init__(self) -> None:
        _check_choice(self.backend, SOLVER_BACKENDS, "backend")
        if self.nx < 2 or self.ny < 2:
            raise ScenarioError(
                f"nx/ny: grid resolution must be >= 2, "
                f"got {self.nx!r} x {self.ny!r}"
            )
        if not (self.rtol > 0.0 or self.atol > 0.0):
            raise ScenarioError(
                "rtol: at least one of rtol/atol must be positive"
            )
        if self.maxiter < 1:
            raise ScenarioError(
                f"maxiter: must be >= 1, got {self.maxiter!r}"
            )
        _check_positive(self.drop_tol, "drop_tol")
        if self.fill_factor < 1.0:
            raise ScenarioError(
                f"fill_factor: must be >= 1, got {self.fill_factor!r}"
            )


@dataclass(frozen=True)
class ControlSpec:
    """Sensor/actuation loop configuration (paper: 100 ms period)."""

    period: float = constants.SENSOR_PERIOD
    lb_threshold: float = 0.25
    sensor_noise: float = 0.0

    def __post_init__(self) -> None:
        _check_positive(self.period, "period")
        if self.lb_threshold < 0.0:
            raise ScenarioError(
                f"lb_threshold: must be >= 0, got {self.lb_threshold!r}"
            )
        if self.sensor_noise < 0.0:
            raise ScenarioError(
                f"sensor_noise: must be >= 0, got {self.sensor_noise!r}"
            )


@dataclass(frozen=True)
class SensorFaultSpec:
    """One declarative sensor fault bound to a (layer, block) address."""

    kind: str = "dead"
    layer: str = field(default="", metadata={"required": True})
    block: str = field(default="", metadata={"required": True})
    start: float = 0.0
    end: Optional[float] = None
    value_k: Optional[float] = None
    sigma_k: float = 2.0
    seed: int = 0

    def __post_init__(self) -> None:
        _check_choice(self.kind, SENSOR_FAULT_KINDS, "kind")
        if not self.layer or not self.block:
            raise ScenarioError(
                "layer: sensor faults need the instrumented block's "
                "'layer' and 'block' names"
            )
        if self.start < 0.0:
            raise ScenarioError(f"start: must be >= 0, got {self.start!r}")
        if self.end is not None and self.end <= self.start:
            raise ScenarioError(
                f"end: must be after start={self.start!r}, got {self.end!r}"
            )
        if self.value_k is not None and self.kind != "stuck":
            raise ScenarioError(
                "value_k: only 'stuck' sensor faults take a held value"
            )
        _check_positive(self.sigma_k, "sigma_k")


@dataclass(frozen=True)
class FlowFaultSpec:
    """One declarative cooling-loop fault (worn pump / clogged cavity)."""

    kind: str = "pump-degradation"
    remaining_fraction: float = 0.7
    cavity: Optional[str] = None
    start: float = 0.0
    end: Optional[float] = None
    inlet_quality: Optional[float] = None

    def __post_init__(self) -> None:
        _check_choice(self.kind, FLOW_FAULT_KINDS, "kind")
        if not 0.0 < self.remaining_fraction <= 1.0:
            raise ScenarioError(
                f"remaining_fraction: must be in (0, 1], "
                f"got {self.remaining_fraction!r}"
            )
        if self.kind == "clogged-cavity" and not self.cavity:
            raise ScenarioError(
                "cavity: clogged-cavity faults need the cavity name "
                "(e.g. 'cavity0')"
            )
        if self.start < 0.0:
            raise ScenarioError(f"start: must be >= 0, got {self.start!r}")
        if self.end is not None and self.end <= self.start:
            raise ScenarioError(
                f"end: must be after start={self.start!r}, got {self.end!r}"
            )
        if self.inlet_quality is not None:
            if self.kind != "dryout":
                raise ScenarioError(
                    "inlet_quality: only 'dryout' faults take a forced "
                    "inlet vapour quality"
                )
            if not 0.0 < self.inlet_quality < 1.0:
                raise ScenarioError(
                    f"inlet_quality: must be in (0, 1), "
                    f"got {self.inlet_quality!r}"
                )


@dataclass(frozen=True)
class FaultSpec:
    """The declarative fault overlay of one scenario.

    Built into a live (stateful) :class:`repro.faults.models.FaultSet`
    per run by :func:`repro.scenario.runner.build_faults`, so repeated
    runs of the same scenario never share fault state.
    """

    sensors: Tuple[SensorFaultSpec, ...] = ()
    flows: Tuple[FlowFaultSpec, ...] = ()
    actuator_lag_periods: Optional[int] = None

    def __post_init__(self) -> None:
        if (
            self.actuator_lag_periods is not None
            and self.actuator_lag_periods < 1
        ):
            raise ScenarioError(
                f"actuator_lag_periods: must be >= 1, "
                f"got {self.actuator_lag_periods!r}"
            )
        seen = set()
        for spec in self.sensors:
            ref = (spec.layer, spec.block)
            if ref in seen:
                raise ScenarioError(
                    f"sensors: duplicate fault on block {ref!r}"
                )
            seen.add(ref)


# ---------------------------------------------------------------------------
# the scenario
# ---------------------------------------------------------------------------


def _to_plain(value: Any) -> Any:
    """Recursively convert a spec value to JSON-compatible plain data."""
    if hasattr(value, "__dataclass_fields__"):
        return {
            f.name: _to_plain(getattr(value, f.name))
            for f in fields(value)
        }
    if isinstance(value, tuple):
        return [_to_plain(item) for item in value]
    return value


def _stack_plain(stack: "StackSpec") -> Dict[str, Any]:
    """``_to_plain`` for the stack, omitting an unset cooling backend.

    Dropping the ``None`` placeholder keeps specs written before the
    pluggable cooling layer at byte-identical ``content_hash`` /
    ``model_hash``, so cached results and shared fan-out models survive
    the upgrade.
    """
    data = _to_plain(stack)
    if data.get("cooling_backend") is None:
        data.pop("cooling_backend", None)
    return data


def _faults_plain(faults: "FaultSpec") -> Dict[str, Any]:
    """``_to_plain`` for the fault overlay, omitting unset flow fields.

    Flow faults written before the dryout kind existed carry no
    ``inlet_quality``; dropping the ``None`` placeholder keeps their
    serialized payload — and every dependent hash — byte-identical.
    """
    data = _to_plain(faults)
    for flow in data.get("flows") or []:
        if flow.get("inlet_quality") is None:
            flow.pop("inlet_quality", None)
    return data


@dataclass(frozen=True)
class Scenario:
    """One fully-specified closed-loop experiment.

    The single declarative entry point behind
    :class:`~repro.scenario.runner.Runner`, the sweep fan-outs, fault
    campaigns and the ``repro run`` CLI.  ``label`` is an opaque
    bookkeeping tag excluded from :meth:`content_hash`, so relabelled
    copies of the same experiment share cached results.
    """

    stack: StackSpec = StackSpec()
    workload: WorkloadSpec = WorkloadSpec()
    policy: PolicySpec = PolicySpec()
    solver: SolverSpec = SolverSpec()
    control: ControlSpec = ControlSpec()
    faults: Optional[FaultSpec] = None
    record_series: bool = False
    label: Optional[str] = None

    # -- validation ---------------------------------------------------------

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> "Scenario":
        """Cross-field checks; raises :class:`ScenarioError` on trouble."""
        if self.policy.cooling != self.stack.cooling:
            raise ScenarioError(
                f"policy.name: {self.policy.name} requires "
                f"{self.policy.cooling} cooling but stack.cooling is "
                f"{self.stack.cooling!r}"
            )
        threads = self.workload.threads
        if threads is not None and threads < self.stack.core_count:
            raise ScenarioError(
                f"workload.threads: {threads} threads cannot occupy the "
                f"stack's {self.stack.core_count} cores; leave threads "
                f"unset to derive 4 SMT threads per core"
            )
        if self.faults is not None and self.stack.cooling != "liquid":
            if self.faults.flows:
                raise ScenarioError(
                    "faults.flows: cooling-loop faults require a "
                    "liquid-cooled stack"
                )
        if self.faults is not None and not self.stack.two_phase:
            if any(flow.kind == "dryout" for flow in self.faults.flows):
                raise ScenarioError(
                    "faults.flows: dryout faults require a two-phase "
                    "stack (stack.two_phase=true)"
                )
        return self

    # -- serialisation ------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data view, JSON-compatible and stable field order."""
        data = {
            "schema_version": SCHEMA_VERSION,
            "stack": _stack_plain(self.stack),
            "workload": _to_plain(self.workload),
            "policy": _to_plain(self.policy),
            "solver": _to_plain(self.solver),
            "control": _to_plain(self.control),
            "faults": _faults_plain(self.faults)
            if self.faults is not None
            else None,
            "record_series": self.record_series,
            "label": self.label,
        }
        return data

    @classmethod
    def from_dict(cls, data: Any, path: str = "scenario") -> "Scenario":
        """Parse and validate a plain-data spec.

        Every error names the offending field path
        (``scenario.policy.name: ...``) and, for enum-like fields, the
        valid choices with a nearest-match suggestion.
        """
        version = _require_mapping(data, path).get(
            "schema_version", SCHEMA_VERSION
        )
        if version != SCHEMA_VERSION:
            raise ScenarioError(
                f"{path}.schema_version: this build reads version "
                f"{SCHEMA_VERSION}, got {version!r}"
            )
        return _from_plain(cls, data, path, extra=frozenset({"schema_version"}))

    def to_json(self, *, indent: Optional[int] = 2) -> str:
        """Serialise to JSON text."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        """Parse from JSON text with spec validation."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"scenario: invalid JSON ({exc})") from None
        return cls.from_dict(data)

    def save(self, path: Union[str, Path]) -> Path:
        """Write the spec to a JSON file; returns the path."""
        path = Path(path)
        path.write_text(self.to_json() + "\n")
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Scenario":
        """Read a spec from a JSON file."""
        path = Path(path)
        if not path.exists():
            raise ScenarioError(f"scenario: spec file {path} does not exist")
        return cls.from_json(path.read_text())

    # -- identity -----------------------------------------------------------

    def _hash_payload(self) -> Dict[str, Any]:
        data = self.to_dict()
        data.pop("label", None)
        return data

    def content_hash(self) -> str:
        """Stable content key of the experiment (hex SHA-256).

        Canonical-JSON over every physics-relevant field (``label`` is
        excluded).  ``repr``-based float formatting makes the digest
        identical across processes, fork/spawn start methods and
        platforms — asserted by the test suite.
        """
        canonical = json.dumps(
            self._hash_payload(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def model_hash(self) -> str:
        """Content key of the thermal model this scenario assembles.

        Covers exactly the fields :class:`CompactThermalModel` consumes
        (stack geometry + solver config), so fan-out workers can share
        one assembled model across scenarios that differ only in
        workload, policy or faults.
        """
        canonical = json.dumps(
            {
                "schema_version": SCHEMA_VERSION,
                "stack": _stack_plain(self.stack),
                "solver": _to_plain(self.solver),
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    # -- derivation ---------------------------------------------------------

    def with_faults(self, faults: Optional[FaultSpec]) -> "Scenario":
        """A copy with the fault overlay replaced (None clears it)."""
        return replace(self, faults=faults)

    def with_label(self, label: Optional[str]) -> "Scenario":
        """A relabelled copy (same :meth:`content_hash`)."""
        return replace(self, label=label)
