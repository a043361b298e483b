"""Tests for the concrete view-synchronous stack against VS properties."""

import pytest

from repro.checking.trace_props import check_vs_trace_properties
from repro.core import make_view
from repro.gcs import ActionLog, VsListener, VsStackNode
from repro.net import Network


class Collector(VsListener):
    def __init__(self):
        self.views = []
        self.delivered = []

    def on_vs_newview(self, view):
        self.views.append(view)

    def on_vs_gprcv(self, payload, sender):
        self.delivered.append((payload, sender))


def make_stack(pids, seed=0):
    v0 = make_view(0, pids)
    net = Network(seed=seed)
    log = ActionLog()
    nodes, listeners = {}, {}
    for pid in pids:
        listener = Collector()
        node = VsStackNode(pid, initial_view=v0, listener=listener,
                           recorder=log)
        net.add_node(node)
        nodes[pid] = node
        listeners[pid] = listener
    net.start()
    return net, nodes, listeners, log, v0


class TestStableGroup:
    def test_multicast_delivery_and_safety(self):
        net, nodes, listeners, log, v0 = make_stack(["a", "b", "c"])
        # Let the initial membership round settle first: messages sent
        # while a view change is in flight may be lost (legal VS
        # behaviour, but not what this test is about).
        net.run_to_quiescence(max_time=50)
        nodes["a"].gpsnd("m1")
        nodes["b"].gpsnd("m2")
        net.run_to_quiescence(max_time=150)
        for pid in "abc":
            assert set(listeners[pid].delivered) == {("m1", "a"), ("m2", "b")}
        check_vs_trace_properties(log.actions, v0)

    def test_same_delivery_order_everywhere(self):
        net, nodes, listeners, log, v0 = make_stack(["a", "b", "c"], seed=5)
        for i in range(4):
            for pid in "abc":
                nodes[pid].gpsnd(("m", pid, i))
        net.run_to_quiescence(max_time=300)
        orders = [tuple(listeners[p].delivered) for p in "abc"]
        assert len(set(orders)) == 1
        assert len(orders[0]) == 12

    def test_initial_view_needs_no_install(self):
        net, nodes, listeners, log, v0 = make_stack(["a", "b"])
        net.run_to_quiescence(max_time=50)
        # Connectivity matches the initial view, but the coordinator still
        # runs a round on start; any installed view contains both members.
        for pid in "ab":
            for view in listeners[pid].views:
                assert view.set == frozenset({"a", "b"})


class TestPartitions:
    def test_partition_installs_component_views(self):
        net, nodes, listeners, log, v0 = make_stack(["a", "b", "c", "d"])
        net.run_to_quiescence(max_time=50)
        net.partition([{"a", "b"}, {"c", "d"}])
        net.run_to_quiescence(max_time=100)
        assert listeners["a"].views[-1].set == frozenset({"a", "b"})
        assert listeners["c"].views[-1].set == frozenset({"c", "d"})
        # Concurrent views have distinct identifiers.
        assert listeners["a"].views[-1].id != listeners["c"].views[-1].id

    def test_views_monotone_per_process(self):
        net, nodes, listeners, log, v0 = make_stack(["a", "b", "c"])
        net.run_to_quiescence(max_time=50)
        net.partition([{"a"}, {"b", "c"}])
        net.run_to_quiescence(max_time=100)
        net.heal()
        net.run_to_quiescence(max_time=200)
        for pid in "abc":
            ids = [v.id for v in listeners[pid].views]
            assert ids == sorted(ids)
            assert len(set(ids)) == len(ids)

    def test_no_cross_view_delivery(self):
        net, nodes, listeners, log, v0 = make_stack(["a", "b", "c"])
        nodes["a"].gpsnd("early")
        net.partition([{"a", "b"}, {"c"}])  # may race with delivery
        net.run_to_quiescence(max_time=200)
        check_vs_trace_properties(log.actions, v0)

    def test_merge_after_partition_satisfies_vs(self):
        net, nodes, listeners, log, v0 = make_stack(["a", "b", "c", "d"], seed=3)
        net.run_to_quiescence(max_time=60)
        nodes["a"].gpsnd("m1")
        net.partition([{"a", "b"}, {"c", "d"}])
        net.run_to_quiescence(max_time=60)
        nodes["a"].gpsnd("m2")
        nodes["c"].gpsnd("m3")
        net.run_to_quiescence(max_time=60)
        net.heal()
        net.run_to_quiescence(max_time=200)
        nodes["d"].gpsnd("m4")
        net.run_to_quiescence(max_time=200)
        stats = check_vs_trace_properties(log.actions, v0)
        assert stats["deliveries"] > 0


class TestCrashRecovery:
    def test_crash_shrinks_view(self):
        net, nodes, listeners, log, v0 = make_stack(["a", "b", "c"])
        net.run_to_quiescence(max_time=50)
        net.crash("c")
        net.run_to_quiescence(max_time=100)
        assert listeners["a"].views[-1].set == frozenset({"a", "b"})

    def test_recovery_rejoins(self):
        net, nodes, listeners, log, v0 = make_stack(["a", "b", "c"])
        net.run_to_quiescence(max_time=50)
        net.crash("c")
        net.run_to_quiescence(max_time=100)
        net.recover("c")
        net.run_to_quiescence(max_time=200)
        assert listeners["a"].views[-1].set == frozenset({"a", "b", "c"})
        check_vs_trace_properties(log.actions, v0)
