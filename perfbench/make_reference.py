"""Regenerate perfbench/reference.json from the program in src/.

    python3 perfbench/make_reference.py

Solves every input the benchmark can draw: the four closed_loop kinds,
each grid pool map at each flow, and each service pool job.  Rerun it
only in a change that means to alter results, and say so there.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from pbench import checks, inputs  # noqa: E402
from pbench.metrics import KINDS  # noqa: E402
from repro.geometry.stack import CoolingMode, build_3d_mpsoc  # noqa: E402
from repro.power.model import PowerModel  # noqa: E402
from repro.scenario import Runner  # noqa: E402
from repro.thermal.model import CompactThermalModel  # noqa: E402


def closed_loop_reference() -> dict:
    return {
        kind: checks.result_record(Runner(inputs.kind_spec(kind)).run())
        for kind in KINDS
    }


def grid_reference() -> dict:
    stack = build_3d_mpsoc(inputs.GRID_TIERS, CoolingMode.LIQUID)
    power_model = PowerModel(stack)
    maps = [
        inputs.grid_power_map(power_model, map_id)
        for map_id in range(inputs.GRID_MAP_POOL)
    ]
    tmax = {str(map_id): [] for map_id in range(inputs.GRID_MAP_POOL)}
    for flow in inputs.GRID_FLOWS:
        model = CompactThermalModel(
            stack, nx=inputs.GRID_CELLS, ny=inputs.GRID_CELLS
        )
        model.set_flow(flow)
        for map_id, powers in enumerate(maps):
            field = model.steady_state(powers)
            residual = checks.energy_residual(model, field, powers)
            if not residual <= checks.ENERGY_TOL:
                raise SystemExit(f"map {map_id} at {flow}: residual {residual}")
            tmax[str(map_id)].append(field.max())
        print(f"grid flow {flow} done", file=sys.stderr)
    return {"flows": list(inputs.GRID_FLOWS), "tmax_k": tmax}


def service_reference() -> dict:
    reference = {}
    for job_seed in range(
        inputs.SERVICE_SEED_BASE, inputs.SERVICE_SEED_BASE + inputs.SERVICE_POOL
    ):
        result = Runner(inputs.service_scenario(job_seed)).run()
        reference[str(job_seed)] = {
            name: getattr(result, name) for name in checks.SERVICE_FIELDS
        }
    return reference


def main() -> int:
    reference = {
        "closed_loop": closed_loop_reference(),
        "grid": grid_reference(),
        "service": service_reference(),
    }
    with open(checks.REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {checks.REFERENCE_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
