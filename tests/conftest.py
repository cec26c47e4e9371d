"""Shared fixtures: small stacks, models and traces that keep tests fast."""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

from repro.geometry import build_3d_mpsoc, CoolingMode
from repro.thermal import CompactThermalModel
from repro.workload.traces import WorkloadTrace


@pytest.fixture()
def start_method(request):
    """Switch the default multiprocessing start method for one test.

    Parametrize it indirectly with the method's name; the platform
    default is restored afterwards.
    """
    method = request.param
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"start method {method!r} unavailable here")
    previous = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method(method, force=True)
    yield method
    multiprocessing.set_start_method(previous, force=True)


@pytest.fixture(scope="session")
def liquid_stack_2tier():
    """The paper's 2-tier liquid-cooled stack."""
    return build_3d_mpsoc(2, CoolingMode.LIQUID)


@pytest.fixture(scope="session")
def air_stack_2tier():
    """The paper's 2-tier air-cooled stack."""
    return build_3d_mpsoc(2, CoolingMode.AIR)


@pytest.fixture(scope="session")
def liquid_model_coarse(liquid_stack_2tier):
    """A coarse (fast) thermal model of the liquid stack."""
    return CompactThermalModel(liquid_stack_2tier, nx=12, ny=10)


@pytest.fixture(scope="session")
def air_model_coarse(air_stack_2tier):
    """A coarse (fast) thermal model of the air stack."""
    return CompactThermalModel(air_stack_2tier, nx=12, ny=10)


@pytest.fixture()
def uniform_core_powers(liquid_stack_2tier):
    """5 W on each core, 1.5 W per cache, nothing elsewhere."""
    powers = {}
    for layer, block in liquid_stack_2tier.iter_blocks():
        if block.kind == "core":
            powers[(layer.name, block.name)] = 5.0
        elif block.kind == "cache":
            powers[(layer.name, block.name)] = 1.5
    return powers


def make_constant_trace(
    level: float, threads: int = 32, intervals: int = 5
) -> WorkloadTrace:
    """A trace with every thread at a constant utilisation level."""
    return WorkloadTrace(
        name=f"constant-{level}",
        utilisation=np.full((intervals, threads), level),
    )


@pytest.fixture()
def short_trace():
    """A 5 s trace at 60 % utilisation for quick closed-loop tests."""
    return make_constant_trace(0.6)
