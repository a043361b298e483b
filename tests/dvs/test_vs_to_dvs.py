"""Unit tests for the ``VS-TO-DVS_p`` automaton (Figure 3)."""

import pytest

from repro.core import make_view
from repro.core.messages import InfoMsg, RegisteredMsg
from repro.dvs.rules import use_views
from repro.dvs.vs_to_dvs import VsToDvs
from repro.ioa import Kind, act


@pytest.fixture
def flt(v0):
    return VsToDvs("p1", v0)


class TestParticipation:
    def test_owns_only_its_actions(self, flt, v0):
        assert flt.participates(act("dvs_newview", v0, "p1"))
        assert not flt.participates(act("dvs_newview", v0, "p2"))
        assert flt.participates(act("vs_gprcv", "m", "p2", "p1"))
        assert not flt.participates(act("vs_gprcv", "m", "p1", "p2"))
        assert not flt.participates(act("unknown", "p1"))

    def test_kinds(self, flt, v0):
        assert flt.action_kind(act("vs_newview", v0, "p1")) is Kind.INPUT
        assert flt.action_kind(act("dvs_newview", v0, "p1")) is Kind.OUTPUT
        assert (
            flt.action_kind(act("dvs_garbage_collect", v0, "p1"))
            is Kind.INTERNAL
        )


class TestInitialState:
    def test_member_initial_state(self, flt, v0):
        s = flt.initial_state()
        assert s.cur == v0
        assert s.client_cur == v0
        assert s.act == v0
        assert s.amb == set()
        assert s.attempted == {v0}
        assert s.reg.get(v0.id) is True

    def test_non_member_initial_state(self, v0):
        outsider = VsToDvs("p9", v0)
        s = outsider.initial_state()
        assert s.cur is None
        assert s.client_cur is None
        assert s.act == v0  # act is V-valued (not bottom) in Figure 3
        assert s.attempted == set()


class TestViewArrival:
    def test_vs_newview_sends_info(self, flt, v0):
        s = flt.initial_state()
        v1 = make_view(1, {"p1", "p2"})
        s = flt.apply(s, act("vs_newview", v1, "p1"))
        assert s.cur == v1
        queued = s.msgs_to_vs.get(v1.id)
        assert queued == [InfoMsg(v0, frozenset())]
        assert s.info_sent.get(v1.id) == (v0, frozenset())

    def test_attempt_needs_info_from_all_others(self, flt, v0):
        s = flt.initial_state()
        v1 = make_view(1, {"p1", "p2"})
        s = flt.apply(s, act("vs_newview", v1, "p1"))
        assert not flt.is_enabled(s, act("dvs_newview", v1, "p1"))
        s = flt.apply(
            s, act("vs_gprcv", InfoMsg(v0, frozenset()), "p2", "p1")
        )
        assert flt.is_enabled(s, act("dvs_newview", v1, "p1"))

    def test_attempt_updates_client_state(self, flt, v0):
        s = flt.initial_state()
        v1 = make_view(1, {"p1", "p2"})
        s = flt.apply(s, act("vs_newview", v1, "p1"))
        s = flt.apply(
            s, act("vs_gprcv", InfoMsg(v0, frozenset()), "p2", "p1")
        )
        s = flt.apply(s, act("dvs_newview", v1, "p1"))
        assert s.client_cur == v1
        assert v1 in s.attempted
        assert v1 in s.amb

    def test_attempt_requires_majority_of_use(self, flt, v0):
        s = flt.initial_state()
        # v1 = {p1} is not a majority of v0 = {p1,p2,p3}.
        v1 = make_view(1, {"p1"})
        s = flt.apply(s, act("vs_newview", v1, "p1"))
        assert not flt.is_enabled(s, act("dvs_newview", v1, "p1"))

    def test_no_singleton_primary_from_pair(self, v0):
        # After act shrinks to {p1,p2}, the view {p1} is still NOT
        # attemptable: a strict majority of a 2-member view is both
        # members, so dynamic voting can never shrink a primary below two
        # processes (Jajodia-Mutchler observed the same of their scheme).
        flt = VsToDvs("p1", v0)
        s = flt.initial_state()
        v1 = make_view(1, {"p1", "p2"})
        s = flt.apply(s, act("vs_newview", v1, "p1"))
        s = flt.apply(
            s, act("vs_gprcv", InfoMsg(v0, frozenset()), "p2", "p1")
        )
        s = flt.apply(s, act("dvs_newview", v1, "p1"))
        # v1 becomes totally registered from p1's perspective:
        s = flt.apply(s, act("vs_gprcv", RegisteredMsg(), "p1", "p1"))
        s = flt.apply(s, act("vs_gprcv", RegisteredMsg(), "p2", "p1"))
        s = flt.apply(s, act("dvs_garbage_collect", v1, "p1"))
        assert s.act == v1
        v2 = make_view(2, {"p1"})
        s = flt.apply(s, act("vs_newview", v2, "p1"))
        assert not flt.is_enabled(s, act("dvs_newview", v2, "p1"))


class TestInfoMerging:
    def test_act_advances_to_max(self, flt, v0):
        s = flt.initial_state()
        v1 = make_view(1, {"p1", "p2"})
        v3 = make_view(3, {"p1", "p2", "p3"})
        s = flt.apply(s, act("vs_newview", v3, "p1"))
        s = flt.apply(s, act("vs_gprcv", InfoMsg(v1, frozenset()), "p2", "p1"))
        assert s.act == v1

    def test_amb_merged_and_pruned(self, flt, v0):
        s = flt.initial_state()
        v1 = make_view(1, {"p1", "p2"})
        v2 = make_view(2, {"p2", "p3"})
        v3 = make_view(3, {"p1", "p2", "p3"})
        s = flt.apply(s, act("vs_newview", v3, "p1"))
        s = flt.apply(
            s, act("vs_gprcv", InfoMsg(v1, frozenset({v2})), "p2", "p1")
        )
        assert s.act == v1
        assert s.amb == {v2}
        assert use_views(s) == {v1, v2}

    def test_stale_info_does_not_regress(self, flt, v0):
        s = flt.initial_state()
        v1 = make_view(1, {"p1", "p2"})
        v3 = make_view(3, {"p1", "p2", "p3"})
        s = flt.apply(s, act("vs_newview", v3, "p1"))
        s = flt.apply(s, act("vs_gprcv", InfoMsg(v1, frozenset()), "p2", "p1"))
        s = flt.apply(s, act("vs_gprcv", InfoMsg(v0, frozenset()), "p3", "p1"))
        assert s.act == v1


class TestGarbageCollection:
    def test_needs_all_registered(self, flt, v0):
        s = flt.initial_state()
        v1 = make_view(1, {"p1", "p2"})
        s = flt.apply(s, act("vs_newview", v1, "p1"))
        s = flt.apply(s, act("vs_gprcv", RegisteredMsg(), "p1", "p1"))
        assert not flt.is_enabled(s, act("dvs_garbage_collect", v1, "p1"))
        s = flt.apply(s, act("vs_gprcv", RegisteredMsg(), "p2", "p1"))
        assert flt.is_enabled(s, act("dvs_garbage_collect", v1, "p1"))

    def test_gc_prunes_amb(self, flt, v0):
        s = flt.initial_state()
        v1 = make_view(1, {"p1", "p2"})
        s = flt.apply(s, act("vs_newview", v1, "p1"))
        s = flt.apply(s, act("vs_gprcv", InfoMsg(v0, frozenset()), "p2", "p1"))
        s = flt.apply(s, act("dvs_newview", v1, "p1"))
        s = flt.apply(s, act("vs_gprcv", RegisteredMsg(), "p1", "p1"))
        s = flt.apply(s, act("vs_gprcv", RegisteredMsg(), "p2", "p1"))
        s = flt.apply(s, act("dvs_garbage_collect", v1, "p1"))
        assert s.act == v1
        assert s.amb == set()


class TestClientTraffic:
    def test_register_queues_registered_message(self, flt, v0):
        s = flt.initial_state()
        s = flt.apply(s, act("dvs_register", "p1"))
        assert s.reg.get(v0.id) is True
        assert RegisteredMsg() in s.msgs_to_vs.get(v0.id)

    def test_send_buffered_then_sent(self, flt, v0):
        s = flt.initial_state()
        s = flt.apply(s, act("dvs_gpsnd", "m1", "p1"))
        assert "m1" in s.msgs_to_vs.get(v0.id)
        assert flt.is_enabled(s, act("vs_gpsnd", "m1", "p1"))
        s = flt.apply(s, act("vs_gpsnd", "m1", "p1"))
        assert "m1" not in s.msgs_to_vs.get(v0.id)

    def test_client_delivery_round_trip(self, flt, v0):
        s = flt.initial_state()
        s = flt.apply(s, act("vs_gprcv", "m1", "p2", "p1"))
        assert s.msgs_from_vs.get(v0.id) == [("m1", "p2")]
        assert flt.is_enabled(s, act("dvs_gprcv", "m1", "p2", "p1"))
        s = flt.apply(s, act("dvs_gprcv", "m1", "p2", "p1"))
        assert s.msgs_from_vs.get(v0.id) == []

    def test_safe_needs_acks_from_all_members(self, flt, v0):
        """The repaired safe rule: VS-SAFE alone is not enough; the safe
        indication is released once every member's client acknowledged."""
        from repro.dvs.vs_to_dvs import AckMsg

        s = flt.initial_state()
        s = flt.apply(s, act("vs_gprcv", "m1", "p2", "p1"))
        s = flt.apply(s, act("dvs_gprcv", "m1", "p2", "p1"))
        s = flt.apply(s, act("vs_safe", "m1", "p2", "p1"))
        assert not flt.is_enabled(s, act("dvs_safe", "m1", "p2", "p1"))
        for q in ["p1", "p2"]:
            s = flt.apply(s, act("vs_gprcv", AckMsg(1), q, "p1"))
        assert not flt.is_enabled(s, act("dvs_safe", "m1", "p2", "p1"))
        s = flt.apply(s, act("vs_gprcv", AckMsg(1), "p3", "p1"))
        assert flt.is_enabled(s, act("dvs_safe", "m1", "p2", "p1"))
        s = flt.apply(s, act("dvs_safe", "m1", "p2", "p1"))
        assert s.safe_ptr.get(v0.id) == 1
        # Released once only.
        assert not flt.is_enabled(s, act("dvs_safe", "m1", "p2", "p1"))

    def test_client_consumption_sends_ack(self, flt, v0):
        from repro.dvs.vs_to_dvs import AckMsg

        s = flt.initial_state()
        s = flt.apply(s, act("vs_gprcv", "m1", "p2", "p1"))
        s = flt.apply(s, act("dvs_gprcv", "m1", "p2", "p1"))
        assert AckMsg(1) in s.msgs_to_vs.get(v0.id)
        assert s.client_delivered.get(v0.id) == [("m1", "p2")]

    def test_literal_variant_forwards_vs_safe(self, v0):
        from repro.dvs.vs_to_dvs import LiteralSafeVsToDvs

        flt = LiteralSafeVsToDvs("p1", v0)
        s = flt.initial_state()
        s = flt.apply(s, act("vs_safe", "m1", "p2", "p1"))
        assert flt.is_enabled(s, act("dvs_safe", "m1", "p2", "p1"))
        s = flt.apply(s, act("dvs_safe", "m1", "p2", "p1"))
        assert s.safe_from_vs.get(v0.id) == []

    def test_messages_stranded_across_views(self, flt, v0):
        s = flt.initial_state()
        v1 = make_view(1, {"p1", "p2"})
        s = flt.apply(s, act("vs_newview", v1, "p1"))
        # client_cur is still v0: client messages target v0, which VS has
        # abandoned at p1.
        s = flt.apply(s, act("dvs_gpsnd", "m1", "p1"))
        assert "m1" in s.msgs_to_vs.get(v0.id)
        assert not flt.is_enabled(s, act("vs_gpsnd", "m1", "p1"))
