"""Protocol-level unit tests: driving VsStackNode handlers directly."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.core import make_view
from repro.core.viewids import ViewId
from repro.core.views import View
from repro.gcs.messages import (
    Collect,
    Data,
    Install,
    Ordered,
    OrderedRun,
    StateReply,
)
from repro.gcs.vs_stack import VsListener, VsStackNode
from repro.net import Network


def wire(pids, seed=0):
    v0 = make_view(0, pids)
    net = Network(seed=seed)
    nodes = {p: net.add_node(VsStackNode(p, initial_view=v0)) for p in pids}
    net.start()
    net.run_to_quiescence(max_time=50)  # let the initial round settle
    return net, nodes, v0


class TestMembershipRound:
    def test_leader_runs_round_on_connectivity(self):
        net, nodes, v0 = wire(["a", "b"])
        # The initial round completed: both installed an identical view.
        assert nodes["a"].view == nodes["b"].view
        assert nodes["a"].view.set == frozenset({"a", "b"})
        assert nodes["a"].view.id.origin == "a"  # leader minted the id

    def test_collect_reply_carries_max_epoch(self):
        net, nodes, v0 = wire(["a", "b"])
        node = nodes["b"]
        sent_before = len(net.log)
        node._on_collect("a", Collect(("a", 99), frozenset({"a", "b"})))
        reply_sends = [
            d for _, k, d in net.log[sent_before:] if k == "send"
        ]
        assert len(reply_sends) == 1
        _, dst, msg = reply_sends[0]
        assert isinstance(msg, StateReply)
        assert msg.max_epoch == node.max_epoch

    def test_collect_for_other_membership_ignored(self):
        net, nodes, v0 = wire(["a", "b"])
        before = len(net.log)
        nodes["b"]._on_collect("a", Collect(("a", 99), frozenset({"a"})))
        assert len(net.log) == before

    def test_install_only_newer_views(self):
        net, nodes, v0 = wire(["a", "b"])
        node = nodes["b"]
        current = node.view
        stale = View(ViewId(0, ""), frozenset({"a", "b"}))
        node._on_install("a", Install(("a", 1), stale))
        assert node.view == current

    def test_install_for_non_member_ignored(self):
        net, nodes, v0 = wire(["a", "b"])
        node = nodes["b"]
        other = View(ViewId(9, "z"), frozenset({"a"}))
        node._on_install("a", Install(("z", 1), other))
        assert node.view.set == frozenset({"a", "b"})

    def test_install_raises_max_epoch(self):
        net, nodes, v0 = wire(["a", "b"])
        node = nodes["b"]
        big = View(ViewId(40, "a"), frozenset({"a", "b"}))
        node._on_install("a", Install(("a", 2), big))
        assert node.max_epoch == 40


def sent(net, since, kind=object):
    return [
        d[2] for _, k, d in net.log[since:]
        if k == "send" and isinstance(d[2], kind)
    ]


class TestSequencer:
    def test_data_assigns_consecutive_slots(self):
        """Both Data arrive in one turn, so they are one run: slots 1
        and 2 (nothing was ordered in this view yet) in one frame per
        member, sent when the zero-delay flush fires and not before."""
        net, nodes, v0 = wire(["a", "b"])
        leader = nodes["a"]
        vid = leader.view.id
        before = len(net.log)
        leader._on_data("b", Data(vid, "m1", "b", 1))
        leader._on_data("b", Data(vid, "m2", "b", 2))
        assert sent(net, before) == []
        net.run_to_quiescence(max_time=100)
        run = OrderedRun(vid, 1, (("m1", "b"), ("m2", "b")))
        assert sent(net, before, (Ordered, OrderedRun)) == [run, run]
        assert run.split() == (
            Ordered(vid, 1, "m1", "b"), Ordered(vid, 2, "m2", "b"),
        )

    def test_stale_view_data_dropped(self):
        net, nodes, v0 = wire(["a", "b"])
        leader = nodes["a"]
        before = len(net.log)
        leader._on_data("b", Data(ViewId(0, ""), "old", "b", 1))
        new_sends = [1 for _, k, _ in net.log[before:] if k == "send"]
        assert not new_sends

    def test_out_of_order_delivery_buffers(self):
        net, nodes, v0 = wire(["a", "b"])
        node = nodes["b"]
        vid = node.view.id
        delivered = []
        node.listener.on_vs_gprcv = (
            lambda payload, sender: delivered.append(payload)
        )
        node._on_ordered("a", Ordered(vid, 2, "second", "a"))
        assert delivered == []
        node._on_ordered("a", Ordered(vid, 1, "first", "a"))
        assert delivered == ["first", "second"]


def recording(node):
    """Route ``node``'s deliveries into the returned list."""
    delivered = []
    node.listener.on_vs_gprcv = (
        lambda payload, sender: delivered.append(payload)
    )
    return delivered


class TestSequencerRuns:
    """The leader orders whatever reached it in one turn as one run."""

    def test_k_data_in_one_turn_are_one_run_of_consecutive_slots(self):
        net, nodes, v0 = wire(["a", "b", "c"])
        leader = nodes["a"]
        vid = leader.view.id
        leader._on_data("b", Data(vid, "first", "b", 1))
        net.run_to_quiescence(max_time=100)
        before = len(net.log)
        for i in range(5):
            sender = "bc"[i % 2]
            n = 2 + i // 2 if sender == "b" else 1 + i // 2
            leader._on_data(sender, Data(vid, i, sender, n))
        net.run_to_quiescence(max_time=100)
        frames = sent(net, before, (Ordered, OrderedRun))
        assert len(frames) == 3  # one frame per member
        run = frames[0]
        assert set(frames) == {run} and type(run) is OrderedRun
        assert run.seq == 2  # slot 1 went to "first"
        assert run.entries == tuple((i, "bc"[i % 2]) for i in range(5))
        assert leader.ordering.next_assign == 7
        for pid in ("b", "c"):
            assert nodes[pid].ordering.next_deliver == 7

    def test_a_lone_data_is_todays_ordered(self):
        net, nodes, v0 = wire(["a", "b"])
        leader = nodes["a"]
        vid = leader.view.id
        before = len(net.log)
        leader._on_data("b", Data(vid, "m", "b", 1))
        net.run_to_quiescence(max_time=100)
        frames = sent(net, before, (Ordered, OrderedRun))
        assert frames == [Ordered(vid, 1, "m", "b")] * 2
        assert {type(m) for m in frames} == {Ordered}

    def test_leaders_own_gpsnd_puts_no_data_on_the_wire(self):
        net, nodes, v0 = wire(["a", "b"])
        got = {pid: recording(nodes[pid]) for pid in nodes}
        before = len(net.log)
        nodes["a"].gpsnd("own")
        nodes["b"].gpsnd("theirs")
        net.run_to_quiescence(max_time=100)
        assert sent(net, before, Data) == [
            Data(nodes["b"].view.id, "theirs", "b", 1)
        ]
        assert got["a"] == got["b"] == ["own", "theirs"]

    def test_a_view_change_before_the_flush_drops_the_run(self):
        net, nodes, v0 = wire(["a", "b"])
        leader = nodes["a"]
        got = recording(nodes["b"])
        old = leader.view
        leader._on_data("b", Data(old.id, "stale", "b", 1))
        leader.gpsnd("also stale")
        new = View(ViewId(old.id.epoch + 1, "a"), old.set)
        for node in nodes.values():
            node._on_install("a", Install(("a", 99), new))
        before = len(net.log)
        net.run_to_quiescence(max_time=100)  # the old run's flush fires
        assert sent(net, before, (Ordered, OrderedRun)) == []
        assert leader.ordering.next_assign == 1 and got == []
        leader._on_data("b", Data(new.id, "fresh", "b", 1))
        net.run_to_quiescence(max_time=100)
        assert sent(net, before, (Ordered, OrderedRun)) == [
            Ordered(new.id, 1, "fresh", "b")
        ] * 2
        assert got == ["fresh"]

    def test_overlapping_and_duplicate_positions_are_ignored(self):
        net, nodes, v0 = wire(["a", "b"])
        node = nodes["b"]
        vid = node.view.id
        got = recording(node)
        node._on_ordered_run("a", OrderedRun(
            vid, 3, (("m3", "a"), ("m4", "a")),
        ))
        node._on_ordered_run("a", OrderedRun(
            vid, 1, (("m1", "a"), ("m2", "a"), ("forged 3", "a")),
        ))
        assert got == ["m1", "m2", "m3", "m4"]
        node._on_ordered_run("a", OrderedRun(
            vid, 3, (("forged 3", "a"), ("forged 4", "a"), ("m5", "a")),
        ))
        node._on_ordered("a", Ordered(vid, 5, "forged 5", "a"))
        assert got == ["m1", "m2", "m3", "m4", "m5"]
        assert node.ordering.next_deliver == 6


def upcalls(node):
    """Route ``node``'s deliveries and batch ends into the returned list."""
    calls = recording(node)
    node.listener.on_vs_batch_end = lambda: calls.append("end")
    return calls


class TestBatchEnd:
    """A frame that delivers positions ends with one ``on_vs_batch_end``,
    after its last ``on_vs_gprcv``; one that delivers nothing, none."""

    def test_a_run_that_fills_positions_ends_once_after_them(self):
        net, nodes, v0 = wire(["a", "b"])
        node = nodes["b"]
        vid = node.view.id
        calls = upcalls(node)
        node._on_ordered_run("a", OrderedRun(
            vid, 1, (("m1", "a"), ("m2", "b"), ("m3", "a")),
        ))
        assert calls == ["m1", "m2", "m3", "end"]
        node._on_ordered("a", Ordered(vid, 4, "m4", "b"))
        assert calls == ["m1", "m2", "m3", "end", "m4", "end"]

    def test_a_run_behind_a_gap_or_for_a_stale_view_ends_nothing(self):
        net, nodes, v0 = wire(["a", "b"])
        node = nodes["b"]
        vid = node.view.id
        calls = upcalls(node)
        node._on_ordered_run("a", OrderedRun(
            vid, 2, (("m2", "a"), ("m3", "a")),
        ))
        node._on_ordered_run("a", OrderedRun(
            ViewId(0, ""), 1, (("old", "a"), ("older", "a")),
        ))
        node._on_ordered("a", Ordered(vid, 3, "m3 again", "a"))
        assert calls == []
        node._on_ordered("a", Ordered(vid, 1, "m1", "b"))  # fills the gap
        assert calls == ["m1", "m2", "m3", "end"]


class _AlwaysBuffered(VsStackNode):
    """The reference: ``_accept`` without its in-order fast path, so
    every frame goes through the buffer."""

    def _accept(self, vid, first_seq, entries):
        if not self._in_current_view(vid):
            return
        ordering = self.ordering
        buffer = ordering.buffer
        for seq, entry in enumerate(entries, first_seq):
            if seq >= ordering.next_deliver:
                buffer.setdefault(seq, entry)
        first = ordering.next_deliver
        while ordering.next_deliver in buffer:
            payload, sender = buffer.pop(ordering.next_deliver)
            ordering.next_deliver += 1
            self._record("vs_gprcv", payload, sender, self.pid)
            self.listener.on_vs_gprcv(payload, sender)
        if ordering.next_deliver != first:
            self.listener.on_vs_batch_end()


class _Upcalls(VsListener):
    def __init__(self):
        self.calls = []

    def on_vs_newview(self, view):
        self.calls.append(("newview", view.id))

    def on_vs_gprcv(self, payload, sender):
        self.calls.append(("gprcv", payload, sender))

    def on_vs_batch_end(self):
        self.calls.append(("end",))


#: One frame as ``(kind, offset, length)``: ``kind`` is ``"frame"`` (in
#: the current view), ``"stale"`` (an earlier view's id) or ``"install"``
#: (a newer view, which discards the buffer); ``offset`` places the
#: frame's first position relative to the next one to deliver: 0 is in
#: order, > 0 leaves a gap, < 0 overlaps delivered positions.
frames = st.lists(
    st.tuples(
        st.sampled_from(["frame"] * 8 + ["stale", "install"]),
        st.integers(-3, 4),
        st.integers(0, 4),
    ),
    max_size=30,
)


class TestInOrderFastPath:
    """``_accept`` delivers an in-order frame over an empty buffer
    without buffering it; every frame must cause exactly the upcalls the
    always-buffering reference causes."""

    @given(frames)
    @example([("frame", 1, 1), ("frame", 0, 1), ("frame", 0, 1)])
    @example([("frame", 2, 2), ("frame", 0, 3), ("frame", -1, 2)])
    def test_same_upcalls_as_the_buffered_path(self, script):
        v1 = View(ViewId(1, "a"), frozenset({"a", "b"}))
        subject = VsStackNode("b", initial_view=v1, listener=_Upcalls())
        reference = _AlwaysBuffered(
            "b", initial_view=v1, listener=_Upcalls()
        )
        epoch = 1
        for i, (kind, offset, length) in enumerate(script):
            nodes = (subject, reference)
            if kind == "install":
                epoch += 1
                view = View(ViewId(epoch, "a"), v1.set)
                for node in nodes:
                    node._on_install("a", Install(("a", epoch), view))
                continue
            vid = ViewId(epoch, "a") if kind == "frame" else ViewId(0, "")
            assert (
                subject.ordering.next_deliver
                == reference.ordering.next_deliver
            )
            first = max(1, subject.ordering.next_deliver + offset)
            entries = tuple(
                (("m", first + k, i), "ab"[k % 2]) for k in range(length)
            )
            for node in nodes:
                if length == 1:
                    node._on_ordered("a", Ordered(vid, first, *entries[0]))
                else:
                    node._on_ordered_run(
                        "a", OrderedRun(vid, first, entries)
                    )
            assert subject.listener.calls == reference.listener.calls
            assert subject.ordering.buffer == reference.ordering.buffer
