"""Coverage for the DVS-IMPL builder and derived-state accessors."""

import pytest

from repro.core import make_view
from repro.dvs import build_dvs_impl
from repro.dvs.impl import (
    VS_EXTERNAL_ACTIONS,
    DvsImplState,
    process_component_name,
)


class TestBuilder:
    def test_signature_hides_vs(self):
        v0 = make_view(0, ["p1", "p2"])
        system = build_dvs_impl(v0, ["p1", "p2"])
        for name in VS_EXTERNAL_ACTIONS:
            assert name in system.internals
        assert "dvs_newview" in system.outputs
        assert "dvs_gpsnd" in system.inputs
        assert "dvs_register" in system.inputs

    def test_universe_extended_by_initial_view(self):
        v0 = make_view(0, ["p1", "p2", "p3"])
        system = build_dvs_impl(v0, ["p1"])
        names = {c.name for c in system.components}
        assert process_component_name("p3") in names

    def test_derived_state_accessors(self):
        v0 = make_view(0, ["p1", "p2"])
        system = build_dvs_impl(v0, ["p1", "p2"])
        impl = DvsImplState(system.initial_state(), ["p1", "p2"])
        assert impl.created == {v0}
        assert impl.att == {v0}
        assert impl.tot_att == {v0}
        assert impl.tot_reg == {v0}
        assert impl.attempted_at("p1") == {v0}
        assert impl.reg_at("p1", v0.id) is True
        assert impl.proc("p1").cur == v0
        assert impl.vs.created == {v0}
