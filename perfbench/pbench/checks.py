"""Output checks against the committed reference results.

The references in ``perfbench/reference.json`` are bitwise identical
under any ``PYTHONHASHSEED`` on the host that wrote them; the tolerance
below is fixed beforehand, tight enough that any change of physics or
control decisions fails, loose enough for summation-order noise.
"""

from __future__ import annotations

import json
import math
from typing import Dict, List, Mapping, Optional

import numpy as np

from .common import REPO_ROOT

REFERENCE_PATH = REPO_ROOT / "perfbench" / "reference.json"

REL_TOL = 1e-6
ABS_TOL = 1e-9
ENERGY_TOL = 1e-6
"""Largest accepted |injected - removed| / injected power of a steady field."""

RESULT_FIELDS = (
    "peak_temperature_c",
    "chip_energy_j",
    "pump_energy_j",
    "hotspot_percent_avg",
    "hotspot_percent_any",
    "degradation_percent",
    "mean_flow_ml_min",
    "dryout_margin",
)
"""Closed-loop result fields pinned per kind (``dryout_margin`` is
``None`` on stacks without dynamic two-phase cooling)."""

SERVICE_FIELDS = (
    "peak_temperature_c",
    "chip_energy_j",
    "pump_energy_j",
    "hotspot_percent_any",
    "degradation_percent",
    "mean_flow_ml_min",
)
"""Fields of the service's result summary pinned per job seed (the
summary carries no hot-spot average and no dry-out margin)."""


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def result_record(result) -> Dict[str, Optional[float]]:
    """The pinned fields of a :class:`SimulationResult`."""
    return {name: getattr(result, name) for name in RESULT_FIELDS}


def mismatches(
    actual: Mapping[str, Optional[float]],
    expected: Mapping[str, Optional[float]],
) -> List[str]:
    """Every expected field the actual record misses or gets wrong."""
    problems = []
    for name, want in expected.items():
        got = actual.get(name)
        if want is None or got is None:
            if want is not got:
                problems.append(f"{name}={got!r}, expected {want!r}")
            continue
        if not (
            isinstance(got, (int, float))
            and math.isfinite(got)
            and math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL)
        ):
            problems.append(f"{name}={got!r}, expected {want!r}")
    return problems


def energy_residual(model, field, block_powers: Mapping[tuple, float]) -> float:
    """``|injected - (coolant + sink)| / injected`` of a steady field.

    The model's stored flow must be the flow the field was solved at:
    :meth:`heat_removed_by_coolant` reads it, so the sweep sets every
    flow with ``set_flow`` rather than passing it to the solve.
    """
    injected = float(sum(block_powers.values()))
    removed = model.heat_removed_by_coolant(field) + model.heat_removed_by_sink(
        field
    )
    return abs(injected - removed) / injected


def grid_field_problems(field, tmax_k: float, residual: float) -> List[str]:
    """Finite field, reference peak temperature and closed energy balance."""
    if not np.all(np.isfinite(field.values)):
        return ["non-finite temperatures"]
    problems = mismatches({"tmax_k": field.max()}, {"tmax_k": tmax_k})
    if not residual <= ENERGY_TOL:
        problems.append(f"energy residual {residual:.3e} > {ENERGY_TOL:g}")
    return problems
