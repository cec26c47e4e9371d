"""Layer attribution for traced runs: self time of calls into each layer.

The program itself carries spans only around a few calls, so the
traced run times calls into each layer's public functions from the
benchmark's side: it swaps each function for a timing wrapper, and puts
every original back when the run ends.  A layer's self time is the
time inside its calls minus the time inside nested wrapped calls, so
the layers of one job sum to at most its wall time; the rest is
reported as unattributed.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Callable, Dict, List, Sequence, Tuple

Wrap = Tuple[object, str, str]
"""(owner class or module, attribute, layer name)."""


def closed_loop_layers() -> List[Wrap]:
    """The layer functions a closed-loop job calls."""
    from repro.core import policies
    from repro.power.model import PowerModel
    from repro.scenario import runner
    from repro.sched.loadbalance import LoadBalancer
    from repro.thermal.field import BlockReduction
    from repro.thermal.model import CompactThermalModel
    from repro.thermal.sensors import TemperatureSensors
    from repro.thermal.solver import TransientStepper

    wraps: List[Wrap] = [
        (runner, "build_trace", "workload.trace_s"),
        (CompactThermalModel, "__init__", "thermal.assembly_s"),
        (CompactThermalModel, "steady_state", "thermal.steady_s"),
        (TransientStepper, "step_packed", "thermal.step_s"),
        (TemperatureSensors, "read", "thermal.sensors_s"),
        (TemperatureSensors, "true_values", "thermal.sensors_s"),
        (PowerModel, "block_powers", "power.block_powers_s"),
        (LoadBalancer, "core_demands", "sched.balance_s"),
        (BlockReduction, "reduce_dict", "thermal.reduce_s"),
        (CompactThermalModel, "update_cooling", "cooling.update_s"),
    ]
    # Every concrete policy defines its own decide().
    for name in dir(policies):
        cls = getattr(policies, name)
        if (
            isinstance(cls, type)
            and issubclass(cls, policies.Policy)
            and "decide" in vars(cls)
            and not getattr(vars(cls)["decide"], "__isabstractmethod__", False)
        ):
            wraps.append((cls, "decide", "core.policy_s"))
    return wraps


def grid_layers() -> List[Wrap]:
    """The layer functions a large-grid steady query calls."""
    from repro.thermal.amg import AmgPreconditioner
    from repro.thermal.krylov import AmgSolver
    from repro.thermal.model import CompactThermalModel

    return [
        (CompactThermalModel, "__init__", "thermal.assembly_s"),
        (AmgPreconditioner, "__init__", "thermal.amg_setup_s"),
        (AmgSolver, "solve", "thermal.krylov_s"),
        (CompactThermalModel, "power_vector", "thermal.rhs_s"),
        (CompactThermalModel, "boundary_rhs", "thermal.rhs_s"),
    ]


class LayerTimer:
    """Accumulates per-layer self time while its wrappers are installed.

    Use as a context manager around :meth:`install`; leaving the
    context restores every wrapped attribute to its original object.
    Single-threaded: nesting is tracked on one stack.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.self_s: Dict[str, float] = defaultdict(float)
        self._nested: List[float] = []
        self._originals: List[Tuple[object, str, object]] = []

    def install(self, wraps: Sequence[Wrap]) -> "LayerTimer":
        for owner, attr, layer in wraps:
            original = vars(owner)[attr]
            setattr(owner, attr, self._timed(original, layer))
            self._originals.append((owner, attr, original))
        return self

    def restore(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        """Forget the tallies (between jobs); wrappers stay installed."""
        self.self_s.clear()

    def total(self) -> float:
        return sum(self.self_s.values())

    def __enter__(self) -> "LayerTimer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()

    def _timed(self, function, layer: str):
        clock = self.clock
        nested = self._nested
        self_s = self.self_s

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            nested.append(0.0)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = nested.pop()
                self_s[layer] += elapsed - inner
                if nested:
                    nested[-1] += elapsed

        return wrapper
