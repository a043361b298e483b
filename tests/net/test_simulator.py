"""Unit tests for the network simulator."""

import pytest

from repro.net import Network, Node


class Echo(Node):
    """Records everything; replies to ``ping`` with ``pong``."""

    def __init__(self, pid):
        super().__init__(pid)
        self.received = []
        self.connectivity = []
        self.timers = []

    def on_message(self, src, msg):
        self.received.append((src, msg))
        if msg == "ping":
            self.send(src, "pong")

    def on_connectivity(self, component):
        self.connectivity.append(component)

    def on_timer(self, tag):
        self.timers.append(tag)


def make_net(n=3, seed=0):
    net = Network(seed=seed)
    nodes = {p: net.add_node(Echo(p)) for p in ["a", "b", "c"][:n]}
    net.start()
    return net, nodes


class TestMessaging:
    def test_round_trip(self):
        net, nodes = make_net()
        nodes["a"].send("b", "ping")
        net.run_to_quiescence()
        assert ("a", "ping") in nodes["b"].received
        assert ("b", "pong") in nodes["a"].received

    def test_fifo_per_channel(self):
        net, nodes = make_net()
        for i in range(5):
            nodes["a"].send("b", ("m", i))
        net.run_to_quiescence()
        payloads = [m for _, m in nodes["b"].received]
        assert payloads == [("m", i) for i in range(5)]

    def test_deterministic_given_seed(self):
        logs = []
        for _ in range(2):
            net, nodes = make_net(seed=42)
            nodes["a"].send("b", "ping")
            nodes["b"].send("c", "x")
            net.run_to_quiescence()
            logs.append([(k, d) for _, k, d in net.log])
        assert logs[0] == logs[1]

    def test_self_send_allowed(self):
        net, nodes = make_net()
        nodes["a"].send("a", "hi")
        net.run_to_quiescence()
        assert ("a", "hi") in nodes["a"].received


class TestPartitions:
    def test_cross_partition_messages_dropped(self):
        net, nodes = make_net()
        net.partition([{"a"}, {"b", "c"}])
        nodes["a"].send("b", "lost")
        net.run_to_quiescence()
        assert nodes["b"].received == []
        kinds = [k for _, k, _ in net.log]
        assert "drop" in kinds

    def test_within_partition_delivery(self):
        net, nodes = make_net()
        net.partition([{"a"}, {"b", "c"}])
        nodes["b"].send("c", "ok")
        net.run_to_quiescence()
        assert ("b", "ok") in nodes["c"].received

    def test_connectivity_notifications(self):
        net, nodes = make_net()
        net.partition([{"a"}, {"b", "c"}])
        assert nodes["a"].connectivity[-1] == frozenset({"a"})
        assert nodes["b"].connectivity[-1] == frozenset({"b", "c"})
        net.heal()
        assert nodes["a"].connectivity[-1] == frozenset({"a", "b", "c"})

    def test_components_listing(self):
        net, nodes = make_net()
        net.partition([{"a"}, {"b", "c"}])
        comps = {tuple(sorted(c)) for c in net.components()}
        assert comps == {("a",), ("b", "c")}

    def test_in_flight_message_dropped_at_partition(self):
        net, nodes = make_net()
        nodes["a"].send("b", "late")
        net.partition([{"a"}, {"b", "c"}])  # before delivery fires
        net.run_to_quiescence()
        assert nodes["b"].received == []


class TestCrashes:
    def test_crashed_node_receives_nothing(self):
        net, nodes = make_net()
        net.crash("b")
        nodes["a"].send("b", "x")
        net.run_to_quiescence()
        assert nodes["b"].received == []

    def test_crashed_node_sends_nothing(self):
        net, nodes = make_net()
        net.crash("a")
        nodes["a"].send("b", "x")
        net.run_to_quiescence()
        assert nodes["b"].received == []

    def test_recovery_rejoins_component(self):
        net, nodes = make_net()
        net.crash("b")
        net.recover("b")
        nodes["a"].send("b", "x")
        net.run_to_quiescence()
        assert ("a", "x") in nodes["b"].received

    def test_crash_triggers_connectivity_update(self):
        net, nodes = make_net()
        net.crash("c")
        assert nodes["a"].connectivity[-1] == frozenset({"a", "b"})


class TestPartitionDeliveryTime:
    """Partitions act at delivery time, in both directions."""

    def test_sent_during_partition_delivered_after_heal(self):
        """A message queued across a partition survives if the partition
        heals before the delivery event fires."""
        net, nodes = make_net()
        net.partition([{"a"}, {"b", "c"}])
        nodes["a"].send("b", "early")
        net.heal()  # before any delivery latency has elapsed
        net.run_to_quiescence()
        assert ("a", "early") in nodes["b"].received

    def test_mid_flight_partition_drops_every_queued_copy(self):
        net, nodes = make_net()
        for i in range(4):
            nodes["a"].send("b", ("m", i))
        net.partition([{"a"}, {"b", "c"}])
        net.run_to_quiescence()
        assert nodes["b"].received == []
        drops = [d for _, k, d in net.log if k == "drop"]
        assert len(drops) == 4


class TestTimers:
    def test_timer_fires(self):
        net, nodes = make_net()
        nodes["a"].set_timer(5, "wake")
        net.run_until(10)
        assert nodes["a"].timers == ["wake"]

    def test_timer_suppressed_for_crashed(self):
        net, nodes = make_net()
        nodes["a"].set_timer(5, "wake")
        net.crash("a")
        net.run_until(10)
        assert nodes["a"].timers == []

    def test_timer_lost_while_crashed_stays_lost_after_recovery(self):
        """A timer that fires during a crash is dropped, not deferred."""
        net, nodes = make_net()
        nodes["a"].set_timer(5, "wake")
        net.crash("a")
        net.run_until(10)  # firing time passes while crashed
        net.recover("a")
        net.run_to_quiescence()
        assert nodes["a"].timers == []

    def test_timer_fires_after_crash_recover_cycle(self):
        """Recovery before the firing time keeps the timer armed."""
        net, nodes = make_net()
        nodes["a"].set_timer(8, "wake")
        net.crash("a")
        net.run_until(3)
        net.recover("a")
        net.run_until(10)
        assert nodes["a"].timers == ["wake"]

    def test_the_default_upcall_runs_the_declared_handler(self):
        class Bell(Node):
            rung = 0

            def ring(self):
                self.rung += 1

            timer_handlers = {"ring": ring}

        net = Network(seed=0)
        bell = net.add_node(Bell("a"))
        net.start()
        bell.set_timer(0, "ring")
        bell.set_timer(1, "undeclared")  # nothing to run: ignored
        net.run_to_quiescence()
        assert bell.rung == 1


class TestFifoUnderJitter:
    def test_per_channel_fifo_with_delay_fault(self):
        """Latency jitter and spikes never reorder a channel."""
        from repro.faults.models import DelayFault

        net, nodes = make_net(seed=11)
        net.install_fault(DelayFault(jitter=6.0, spike_prob=0.5, spike=25.0))
        for i in range(12):
            nodes["a"].send("b", ("m", i))
            nodes["b"].send("a", ("r", i))
        net.run_to_quiescence()
        assert [m for _, m in nodes["b"].received] == [
            ("m", i) for i in range(12)
        ]
        assert [m for _, m in nodes["a"].received] == [
            ("r", i) for i in range(12)
        ]


class TestEventLogBounds:
    def test_unbounded_by_default(self):
        net, nodes = make_net()
        for i in range(20):
            nodes["a"].send("b", i)
        net.run_to_quiescence()
        assert net.log.dropped == 0
        assert len(net.log) >= 40  # sends + delivers

    def test_bounded_log_trims_oldest(self):
        from repro.net import Network

        net = Network(seed=0, log_limit=10)
        nodes = {p: net.add_node(Echo(p)) for p in ["a", "b"]}
        net.start()
        for i in range(200):
            nodes["a"].send("b", i)
        net.run_to_quiescence()
        assert len(net.log) <= 20  # trims in chunks, never above 2x limit
        assert net.log.dropped > 0
        # The tail is the most recent history.
        times = [t for t, _, _ in net.log]
        assert times == sorted(times)


class TestTopology:
    def test_duplicate_pid_rejected(self):
        net = Network()
        net.add_node(Echo("a"))
        with pytest.raises(ValueError):
            net.add_node(Echo("a"))

    def test_component_of_crashed_is_empty(self):
        net, nodes = make_net()
        net.crash("a")
        assert net.component("a") == frozenset()
