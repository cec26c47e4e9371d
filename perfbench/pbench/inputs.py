"""Inputs drawn from the benchmark's ``--seed``.

The seed only selects and orders entries of fixed pools whose
reference results are committed in ``perfbench/reference.json``, so
every input a run can draw has a known answer.  String seeds keep the
draws independent of ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import random
from typing import Dict, List

import numpy as np

from repro.power.model import PowerModel
from repro.scenario.spec import PolicySpec, Scenario, StackSpec, WorkloadSpec

from .common import REPO_ROOT
from .metrics import KINDS

KIND_SPECS: Dict[str, str] = {
    "2t_fuzzy": "examples/specs/two_tier_fuzzy.json",
    "4t_fuzzy": "examples/specs/four_tier_fuzzy.json",
    "2t_twophase": "examples/specs/two_tier_twophase.json",
    # `repro export-scenario --tiers 2 --policy AC_TDVFS_LB
    #  --workload database --duration 60`, the air-cooled baseline.
    "2t_tdvfs": "perfbench/specs/two_tier_tdvfs.json",
}

GRID_TIERS = 4
GRID_CELLS = 100
GRID_FLOWS = (10.0, 20.0, 32.3)
"""Per-cavity flows [ml/min] spanning Table I's 10-32.3 ml/min range."""
GRID_MAP_POOL = 32
GRID_MAPS = 3
GRID_MAP_SEED_BASE = 7000

SERVICE_POOL = 256
SERVICE_SEED_BASE = 5000
SERVICE_DURATION_S = 2
SERVICE_WORKLOAD = "web"


def kind_spec(kind: str) -> Scenario:
    """The committed scenario of one closed_loop kind."""
    return Scenario.load(REPO_ROOT / KIND_SPECS[kind])


def kind_orders(seed: int, passes: int) -> List[List[str]]:
    """The order of the kinds in each pass (every pass runs each once)."""
    rng = random.Random(f"closed_loop-{seed}")
    orders = []
    for _ in range(passes):
        order = list(KINDS)
        rng.shuffle(order)
        orders.append(order)
    return orders


def grid_map_ids(seed: int) -> List[int]:
    """Distinct power maps of the pool solved by every grid sweep."""
    return random.Random(f"grid-{seed}").sample(range(GRID_MAP_POOL), GRID_MAPS)


def grid_power_map(power_model: PowerModel, map_id: int) -> Dict[tuple, float]:
    """Block powers [W] of pool map ``map_id``: seeded core utilisations."""
    if not 0 <= map_id < GRID_MAP_POOL:
        raise ValueError(f"grid map {map_id} outside the pool")
    rng = np.random.default_rng(GRID_MAP_SEED_BASE + map_id)
    refs = power_model.core_refs
    utilisation = rng.uniform(0.1, 1.0, size=len(refs))
    return power_model.block_powers(
        {ref: float(u) for ref, u in zip(refs, utilisation)}
    )


def service_job_seeds(seed: int, count: int) -> List[int]:
    """``count`` distinct workload seeds of the service pool, in submit order."""
    if count > SERVICE_POOL:
        raise ValueError(f"{count} jobs exceed the pool of {SERVICE_POOL}")
    pool = range(SERVICE_SEED_BASE, SERVICE_SEED_BASE + SERVICE_POOL)
    return random.Random(f"service-{seed}").sample(pool, count)


def service_scenario(job_seed: int) -> Scenario:
    """A short 2-tier LC_FUZZY job; distinct seeds give distinct content hashes."""
    return Scenario(
        stack=StackSpec(tiers=2, cooling="liquid"),
        workload=WorkloadSpec(
            name=SERVICE_WORKLOAD,
            source="generator",
            duration=SERVICE_DURATION_S,
            seed=job_seed,
        ),
        policy=PolicySpec(name="LC_FUZZY"),
        label=f"service job {job_seed}",
    )
