"""Unit tests for the runtime DVS layer, driven through a fake stack."""

import pytest

from repro.core import make_view
from repro.core.messages import InfoMsg, RegisteredMsg
from repro.dvs.vs_to_dvs import AckMsg
from repro.gcs.dvs_layer import DvsLayer, DvsListener
from repro.gcs.messages import Ack, Ordered, SafeNote
from repro.gcs.tower import Tower
from repro.net import Network


class FakeStack:
    """Stands in for VsStackNode: records gpsnd calls."""

    def __init__(self, pid):
        self.pid = pid
        self.listener = None
        self.sent = []

    def gpsnd(self, payload):
        self.sent.append(payload)


class Sink(DvsListener):
    def __init__(self):
        self.views = []
        self.delivered = []
        self.safe = []

    def on_dvs_newview(self, view):
        self.views.append(view)

    def on_dvs_gprcv(self, payload, sender):
        self.delivered.append((payload, sender))

    def on_dvs_safe(self, payload, sender):
        self.safe.append((payload, sender))


def layer(pids=("a", "b", "c")):
    v0 = make_view(0, pids)
    stack = FakeStack("a")
    sink = Sink()
    dvs = DvsLayer(stack, v0, listener=sink)
    return dvs, stack, sink, v0


class TestAttemptFlow:
    def test_newview_sends_info_and_waits(self):
        dvs, stack, sink, v0 = layer()
        v1 = make_view(1, {"a", "b"})
        dvs.on_vs_newview(v1)
        assert isinstance(stack.sent[-1], InfoMsg)
        assert sink.views == []  # waiting for b's info
        dvs.on_vs_gprcv(InfoMsg(v0, frozenset()), "b")
        assert sink.views == [v1]

    def test_minority_view_rejected(self):
        dvs, stack, sink, v0 = layer()
        tiny = make_view(1, {"a"})
        dvs.on_vs_newview(tiny)
        assert sink.views == []  # {a} is no majority of v0

    def test_pre_attempt_deliveries_buffered_then_flushed(self):
        dvs, stack, sink, v0 = layer()
        v1 = make_view(1, {"a", "b"})
        dvs.on_vs_newview(v1)
        dvs.on_vs_gprcv("early", "b")
        assert sink.delivered == []
        dvs.on_vs_gprcv(InfoMsg(v0, frozenset()), "b")
        assert sink.delivered == [("early", "b")]

    def test_buffered_deliveries_dropped_on_next_view(self):
        dvs, stack, sink, v0 = layer()
        v1 = make_view(1, {"a", "b"})
        dvs.on_vs_newview(v1)
        dvs.on_vs_gprcv("doomed", "b")
        dvs.on_vs_newview(make_view(2, {"a", "b", "c"}))
        for q in ["b", "c"]:
            dvs.on_vs_gprcv(InfoMsg(v0, frozenset()), q)
        assert ("doomed", "b") not in sink.delivered


def deliver(dvs, *entries):
    """One VS frame: deliver each ``(payload, sender)`` in order, then
    end the batch, as ``VsStackNode._accept`` does."""
    for payload, sender in entries:
        dvs.on_vs_gprcv(payload, sender)
    dvs.on_vs_batch_end()


class TestAckedSafe:
    def test_client_delivery_sends_ack(self):
        dvs, stack, sink, v0 = layer()
        deliver(dvs, ("m", "b"))
        assert AckMsg(1) in stack.sent

    def test_safe_needs_all_members(self):
        dvs, stack, sink, v0 = layer()
        deliver(dvs, ("m", "b"))
        deliver(dvs, (AckMsg(1), "a"))
        deliver(dvs, (AckMsg(1), "b"))
        assert sink.safe == []
        deliver(dvs, (AckMsg(1), "c"))
        assert sink.safe == [("m", "b")]

    def test_vs_safe_alone_is_ignored(self):
        dvs, stack, sink, v0 = layer()
        deliver(dvs, ("m", "b"))
        dvs.on_vs_safe("m", "b")
        assert sink.safe == []

    def test_safe_released_in_order(self):
        dvs, stack, sink, v0 = layer()
        deliver(dvs, ("m1", "b"), ("m2", "c"))
        deliver(dvs, *[(AckMsg(2), q) for q in ["a", "b", "c"]])
        assert sink.safe == [("m1", "b"), ("m2", "c")]


class TestRegistrationAndGc:
    def _attempted_v1(self):
        dvs, stack, sink, v0 = layer()
        v1 = make_view(1, {"a", "b"})
        dvs.on_vs_newview(v1)
        dvs.on_vs_gprcv(InfoMsg(v0, frozenset()), "b")
        assert sink.views == [v1]
        return dvs, stack, sink

    def test_initial_view_already_registered(self):
        dvs, stack, sink, v0 = layer()
        dvs.register()  # v0 starts registered: nothing to send
        assert not any(isinstance(m, RegisteredMsg) for m in stack.sent)

    def test_register_sends_registered(self):
        dvs, stack, sink = self._attempted_v1()
        dvs.register()
        assert any(isinstance(m, RegisteredMsg) for m in stack.sent)

    def test_register_idempotent(self):
        dvs, stack, sink = self._attempted_v1()
        dvs.register()
        count = sum(1 for m in stack.sent if isinstance(m, RegisteredMsg))
        dvs.register()
        assert sum(
            1 for m in stack.sent if isinstance(m, RegisteredMsg)
        ) == count

    def test_gc_advances_act_on_full_registration(self):
        dvs, stack, sink, v0 = layer()
        v1 = make_view(1, {"a", "b"})
        dvs.on_vs_newview(v1)
        dvs.on_vs_gprcv(InfoMsg(v0, frozenset()), "b")
        assert dvs.act == v0
        dvs.on_vs_gprcv(RegisteredMsg(), "a")
        dvs.on_vs_gprcv(RegisteredMsg(), "b")
        assert dvs.act == v1
        assert dvs.amb == set()

    def test_stranded_send_when_client_lags(self):
        dvs, stack, sink, v0 = layer()
        v1 = make_view(1, {"a", "b"})
        dvs.on_vs_newview(v1)  # client still at v0
        before = len(stack.sent)
        dvs.gpsnd("stuck")
        assert len(stack.sent) == before  # addressed to a dead view


def acks(stack):
    return [m for m in stack.sent if isinstance(m, AckMsg)]


class TestAckCoalescing:
    """At most one cumulative AckMsg of ours is un-echoed at any time,
    and it goes out when a VS frame ends, covering the whole frame."""

    def test_burst_while_in_flight_yields_one_ack_on_echo(self):
        dvs, stack, sink, v0 = layer()
        for i in range(5):
            deliver(dvs, (("m", i), "b"))
        assert acks(stack) == [AckMsg(1)]
        deliver(dvs, (AckMsg(1), "a"))  # our own ack, back through VS
        assert acks(stack) == [AckMsg(1), AckMsg(5)]
        deliver(dvs, (AckMsg(5), "a"))  # nothing delivered meanwhile
        assert acks(stack) == [AckMsg(1), AckMsg(5)]
        deliver(dvs, (("m", 5), "c"))   # light load: acked at once
        assert acks(stack) == [AckMsg(1), AckMsg(5), AckMsg(6)]

    def test_echo_inside_a_frame_acks_the_whole_frame(self):
        """The sequencer runs our echo ahead of client payloads: the next
        ack waits for the frame's end and counts all of them, also when
        a delivery from an earlier frame is still unacknowledged."""
        dvs, stack, sink, v0 = layer()
        deliver(dvs, ("m1", "b"))
        assert acks(stack) == [AckMsg(1)]
        deliver(
            dvs, (AckMsg(1), "a"),
            *[("m{0}".format(i), "bc"[i % 2]) for i in range(2, 6)]
        )
        assert acks(stack) == [AckMsg(1), AckMsg(5)]
        deliver(dvs, ("m6", "b"))  # AckMsg(5) in flight: nothing sent
        deliver(dvs, (AckMsg(5), "a"), ("m7", "c"), ("m8", "b"))
        assert acks(stack) == [AckMsg(1), AckMsg(5), AckMsg(8)]

    def test_peers_acks_do_not_clock_ours(self):
        dvs, stack, sink, v0 = layer()
        deliver(dvs, ("m1", "b"))
        deliver(dvs, ("m2", "b"))
        deliver(dvs, (AckMsg(2), "b"))
        deliver(dvs, (AckMsg(2), "c"))
        assert acks(stack) == [AckMsg(1)]
        assert sink.safe == []  # still waiting for *our* count
        deliver(dvs, (AckMsg(1), "a"))
        assert acks(stack) == [AckMsg(1), AckMsg(2)]
        assert sink.safe == [("m1", "b")]
        deliver(dvs, (AckMsg(2), "a"))
        assert sink.safe == [("m1", "b"), ("m2", "b")]

    def test_burst_released_at_attempt_time(self):
        dvs, stack, sink, v0 = layer()
        v1 = make_view(1, {"a", "b"})
        dvs.on_vs_newview(v1)
        for i in range(4):
            deliver(dvs, (("early", i), "b"))
        assert acks(stack) == []  # buffered: no client has seen them
        deliver(dvs, (InfoMsg(v0, frozenset()), "b"))
        assert len(sink.delivered) == 4
        assert acks(stack) == [AckMsg(4)]  # the attempt's frame, whole
        deliver(dvs, (AckMsg(4), "a"))
        assert acks(stack) == [AckMsg(4)]

    def test_duplicated_own_echo_is_harmless(self):
        dvs, stack, sink, v0 = layer()
        for i in range(3):
            deliver(dvs, (("m", i), "b"))
        deliver(dvs, (AckMsg(1), "a"))
        deliver(dvs, (AckMsg(1), "a"))  # faultnet duplication
        assert acks(stack) == [AckMsg(1), AckMsg(3)]
        deliver(dvs, (("m", 3), "b"))
        assert acks(stack) == [AckMsg(1), AckMsg(3)]  # AckMsg(3) in flight
        deliver(dvs, (AckMsg(3), "a"))
        deliver(dvs, (AckMsg(3), "a"))
        assert acks(stack) == [AckMsg(1), AckMsg(3), AckMsg(4)]

    def test_newview_resets_in_flight_state(self):
        dvs, stack, sink, v0 = layer()
        deliver(dvs, ("m1", "b"))
        deliver(dvs, ("m2", "b"))  # AckMsg(1) un-echoed, lost with v0
        v1 = make_view(1, {"a", "b"})
        dvs.on_vs_newview(v1)
        deliver(dvs, (InfoMsg(v0, frozenset()), "b"))
        deliver(dvs, ("m3", "b"))
        assert acks(stack) == [AckMsg(1), AckMsg(1)]  # counts restart
        deliver(dvs, (AckMsg(1), "b"))
        deliver(dvs, (AckMsg(1), "a"))
        assert sink.safe == [("m3", "b")]


class TestTowerHostedStackTracksNoStability:
    def test_stray_ack_and_safe_note_retain_nothing(self):
        v0 = make_view(0, {"a", "b"})
        net = Network(seed=0)
        towers = {p: Tower(p, v0, orderings=False) for p in "ab"}
        for tower in towers.values():
            net.add_node(tower.stack)
        net.start()
        net.run_to_quiescence(max_time=50)
        leader = towers["a"].stack
        vid = leader.view.id
        before = len(net.log)
        ordering = leader.ordering
        buffered = dict(ordering.buffer)
        for seq in (1, 2, 7):
            for src in "ab":
                leader.on_message(src, Ack(vid, seq))
            leader.on_message("a", SafeNote(vid, seq))
        assert ordering.buffer == buffered
        assert len(net.log) == before  # and no SafeNote went out
        seq = ordering.next_deliver
        leader.on_message("a", Ordered(vid, seq, "m", "b"))
        leader.on_message("a", Ordered(vid, seq, "m", "b"))  # duplicate
        assert ordering.next_deliver == seq + 1
        assert ordering.buffer == {}
