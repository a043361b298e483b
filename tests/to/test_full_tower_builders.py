"""Coverage for the alternative TO-IMPL builders in repro.to.impl."""

import pytest

from repro.checking import check_to_trace_properties
from repro.checking.drivers import ToClientDriver
from repro.core import make_view
from repro.ioa import Composition, run_random
from repro.to.impl import (
    ToImplState,
    build_to_impl,
    build_to_over_dvs_impl,
)


class TestBuilders:
    def test_to_impl_signature(self):
        v0 = make_view(0, ["p1", "p2"])
        system = build_to_impl(v0, ["p1", "p2"])
        assert "dvs_gprcv" in system.internals
        assert "bcast" in system.inputs
        assert "brcv" in system.outputs

    def test_to_over_dvs_impl_signature(self):
        v0 = make_view(0, ["p1", "p2"])
        system = build_to_over_dvs_impl(v0, ["p1", "p2"])
        assert "vs_gprcv" in system.internals
        assert "dvs_gprcv" in system.internals
        assert "brcv" in system.outputs

    def test_to_over_dvs_impl_runs(self):
        v0 = make_view(0, ["p1", "p2"])
        tower = build_to_over_dvs_impl(v0, ["p1", "p2"])
        clients = [ToClientDriver(p, budget=1) for p in ["p1", "p2"]]
        system = Composition(
            tower.components + clients,
            hidden=tower.hidden,
            name="closed_tower",
        )
        ex = run_random(system, 4000, seed=0)
        stats = check_to_trace_properties(ex.trace())
        assert stats["deliveries"] == 2 * 2

    def test_allstate_helper(self):
        v0 = make_view(0, ["p1", "p2"])
        system = build_to_impl(v0, ["p1", "p2"])
        assert ToImplState(
            system.initial_state(), ["p1", "p2"]
        ).allstate() == set()

    def test_impl_state_accessors(self):
        v0 = make_view(0, ["p1", "p2"])
        system = build_to_impl(v0, ["p1", "p2"])
        state = ToImplState(system.initial_state(), ["p1", "p2"])
        assert state.created == {v0}
        assert state.app("p1").current == v0
