"""Layer attribution: self-time accounting and restoring what was wrapped."""

import pytest
from pbench.layers import LayerTimer, closed_loop_layers, grid_layers


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class Work:
    clock = None

    def outer(self):
        Work.clock.now += 1.0
        self.inner()
        Work.clock.now += 2.0
        return "outer"

    def inner(self):
        Work.clock.now += 4.0
        return "inner"


def test_self_time_excludes_nested_layers():
    clock = FakeClock()
    Work.clock = clock
    with LayerTimer(clock).install(
        [(Work, "outer", "outer_s"), (Work, "inner", "inner_s")]
    ) as timer:
        assert Work().outer() == "outer"
        assert dict(timer.self_s) == {"outer_s": 3.0, "inner_s": 4.0}
        assert timer.total() == 7.0
        timer.reset()
        assert timer.total() == 0.0


@pytest.mark.parametrize("layers", [closed_loop_layers, grid_layers])
def test_every_wrapped_attribute_is_restored(layers):
    wraps = layers()
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in wraps]
    with pytest.raises(RuntimeError):
        with LayerTimer().install(wraps):
            assert all(vars(owner)[attr] is not original
                       for owner, attr, original in originals)
            raise RuntimeError("a job failed mid-trace")
    assert all(vars(owner)[attr] is original for owner, attr, original in originals)


def test_closed_loop_layers_cover_every_concrete_policy():
    from repro.core import policies

    wrapped = {owner for owner, attr, layer in closed_loop_layers()
               if layer == "core.policy_s"}
    assert {policies.AirLoadBalancing, policies.AirTDVFSLoadBalancing,
            policies.LiquidLoadBalancing, policies.LiquidFuzzy} <= wrapped
