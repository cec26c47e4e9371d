"""The seeded input generator and the pools the references cover."""

import contextlib
import io
import json

import pytest
from pbench import checks, inputs
from pbench.common import REPO_ROOT
from pbench.metrics import KINDS
from repro.cli import main as repro_main
from repro.geometry.stack import CoolingMode, build_3d_mpsoc
from repro.power.model import PowerModel


def test_service_jobs_are_distinct_scenarios():
    seeds = inputs.service_job_seeds(11, 151)
    assert len(set(seeds)) == len(seeds)
    hashes = {inputs.service_scenario(seed).content_hash() for seed in seeds}
    assert len(hashes) == len(seeds)
    assert inputs.service_job_seeds(11, 151) == seeds
    assert inputs.service_job_seeds(12, 151) != seeds
    with pytest.raises(ValueError):
        inputs.service_job_seeds(11, inputs.SERVICE_POOL + 1)


def test_grid_maps_are_distinct_and_repeatable():
    power_model = PowerModel(build_3d_mpsoc(inputs.GRID_TIERS, CoolingMode.LIQUID))
    ids = inputs.grid_map_ids(5)
    assert len(set(ids)) == inputs.GRID_MAPS
    assert inputs.grid_map_ids(5) == ids
    assert any(inputs.grid_map_ids(seed) != ids for seed in range(6, 10))
    maps = [inputs.grid_power_map(power_model, map_id) for map_id in ids]
    assert len({tuple(sorted(m.values())) for m in maps}) == len(maps)
    assert inputs.grid_power_map(power_model, ids[0]) == maps[0]
    with pytest.raises(ValueError):
        inputs.grid_power_map(power_model, inputs.GRID_MAP_POOL)


def test_every_pass_runs_each_kind_once():
    orders = inputs.kind_orders(3, 6)
    assert len(orders) == 6
    assert all(sorted(order) == sorted(KINDS) for order in orders)
    assert inputs.kind_orders(3, 6) == orders


def test_reference_covers_every_input_a_seed_can_draw():
    reference = checks.load_reference()
    assert sorted(reference["closed_loop"]) == sorted(KINDS)
    assert reference["grid"]["flows"] == list(inputs.GRID_FLOWS)
    tmax = reference["grid"]["tmax_k"]
    assert sorted(map(int, tmax)) == list(range(inputs.GRID_MAP_POOL))
    assert all(len(values) == len(inputs.GRID_FLOWS) for values in tmax.values())
    first = inputs.SERVICE_SEED_BASE
    pool = range(first, first + inputs.SERVICE_POOL)
    assert sorted(map(int, reference["service"])) == list(pool)


def test_tdvfs_spec_is_what_export_scenario_emits():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        repro_main([
            "export-scenario", "--tiers", "2", "--policy", "AC_TDVFS_LB",
            "--workload", "database", "--duration", "60",
        ])
    committed = (REPO_ROOT / inputs.KIND_SPECS["2t_tdvfs"]).read_text()
    assert json.loads(out.getvalue()) == json.loads(committed)
