"""Tests for nemesis plans, generators and the scheduler."""

import pytest

from repro.faults.nemesis import (
    FaultOp,
    Nemesis,
    NemesisPlan,
    bridge_topology,
    compose,
    crash_recovery_storm,
    flaky_link_windows,
    partition_churn,
)
from repro.net import Network, Node

PROCS = ["p1", "p2", "p3", "p4"]


class TestFaultOp:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            FaultOp(1.0, "meteor")

    def test_freezes_args(self):
        op = FaultOp(1.0, "partition", ([["p1"], ["p2"]],))
        assert op.args == ((("p1",), ("p2",)),)

    def test_window_end(self):
        op = FaultOp(5.0, "drop", (None, 0.5, 10.0))
        assert op.end == 15.0
        assert FaultOp(5.0, "heal").end == 5.0


class TestNemesisPlan:
    def test_sorted_by_time(self):
        plan = NemesisPlan(
            [FaultOp(9.0, "heal"), FaultOp(1.0, "crash", ("p1",))]
        )
        assert [op.at for op in plan] == [1.0, 9.0]

    def test_horizon_covers_windows(self):
        plan = NemesisPlan([FaultOp(5.0, "drop", (None, 0.5, 50.0))])
        assert plan.horizon == 55.0

    def test_subset_and_without(self):
        plan = NemesisPlan(
            [FaultOp(float(i), "crash", ("p1",)) for i in range(4)]
        )
        assert [op.at for op in plan.subset([0, 2])] == [0.0, 2.0]
        assert [op.at for op in plan.without([0, 2])] == [1.0, 3.0]

    def test_json_round_trip(self):
        plan = compose(
            crash_recovery_storm(PROCS, seed=1),
            flaky_link_windows(PROCS, seed=2),
            partition_churn(PROCS, seed=3),
            bridge_topology(PROCS[:2], PROCS[2:], PROCS[0]),
        )
        assert NemesisPlan.from_json(plan.to_json()) == plan

    def test_mixed_args_sort_without_comparison_error(self):
        # drop with links=None and with a tuple at the same time & kind.
        plan = NemesisPlan([
            FaultOp(1.0, "drop", (None, 0.5, 5.0)),
            FaultOp(1.0, "drop", ((("p1", "p2"),), 0.5, 5.0)),
        ])
        assert len(plan) == 2

    def test_window_op_with_the_wrong_arity_is_a_value_error(self):
        with pytest.raises(ValueError, match="drop takes"):
            FaultOp(1.0, "drop", (None, 0.5)).end


class TestGenerators:
    def test_deterministic_in_seed(self):
        for builder in (crash_recovery_storm, partition_churn,
                        flaky_link_windows):
            assert builder(PROCS, seed=5) == builder(PROCS, seed=5)
            assert builder(PROCS, seed=5) != builder(PROCS, seed=6)

    def test_storm_pairs_crashes_with_recoveries(self):
        plan = crash_recovery_storm(PROCS, seed=0, crashes=10)
        crashes = [op for op in plan if op.kind == "crash"]
        recoveries = [op for op in plan if op.kind == "recover"]
        assert len(crashes) == len(recoveries) > 0

    def test_storm_leaves_a_spare(self):
        plan = crash_recovery_storm(PROCS, seed=1, crashes=30, spare=1,
                                    min_down=100.0, max_down=200.0)
        down = set()
        for op in sorted(plan, key=lambda op: op.at):
            if op.kind == "crash":
                down.add(op.args[0])
                assert len(down) <= len(PROCS) - 1
            elif op.kind == "recover":
                down.discard(op.args[0])

    def test_churn_heals_at_end(self):
        plan = partition_churn(PROCS, seed=2)
        assert plan.ops[-1].kind == "heal"

    def test_bridge_blocks_cross_links_only(self):
        plan = bridge_topology(["p1", "p2"], ["p3", "p4"], "p1")
        (op,) = plan.ops
        pairs = set(op.args[0])
        assert ("p2", "p3") in pairs and ("p3", "p2") in pairs
        assert not any("p1" in pair for pair in pairs)


class Quiet(Node):
    pass


class TestScheduler:
    def test_ops_fire_at_their_times(self):
        net = Network(seed=0)
        for pid in PROCS:
            net.add_node(Quiet(pid))
        plan = NemesisPlan([
            FaultOp(5.0, "crash", ("p1",)),
            FaultOp(12.0, "recover", ("p1",)),
            FaultOp(20.0, "partition", ((("p1", "p2"), ("p3", "p4")),)),
            FaultOp(30.0, "heal"),
        ])
        nemesis = Nemesis(plan).arm(net)
        net.start()
        net.run_until(6)
        assert not net.alive("p1")
        net.run_until(13)
        assert net.alive("p1")
        net.run_until(21)
        assert net.component("p1") == frozenset({"p1", "p2"})
        net.run_until(31)
        assert net.component("p1") == frozenset(PROCS)
        assert len(nemesis.applied) == 4

    def test_windows_install_and_remove_faults(self):
        net = Network(seed=0)
        for pid in PROCS:
            net.add_node(Quiet(pid))
        plan = NemesisPlan([FaultOp(5.0, "drop", (None, 1.0, 10.0))])
        Nemesis(plan).arm(net)
        net.start()
        net.run_until(6)
        assert len(net.faults) == 1
        net.run_until(16)
        assert net.faults == []
        kinds = [k for _, k, _ in net.log]
        assert "fault_on" in kinds and "fault_off" in kinds
        assert "nemesis" in kinds

    def test_every_window_kind_builds_its_model_from_the_layout(self):
        net = Network(seed=0)
        for pid in PROCS:
            net.add_node(Quiet(pid))
        pairs = (("p1", "p2"),)
        Nemesis([
            FaultOp(1.0, "duplicate", (pairs, 0.5, 3.0, 10.0)),
            FaultOp(2.0, "delay", (None, 2.0, 0.25, 8.0, 10.0)),
            FaultOp(3.0, "oneway", (pairs, 10.0)),
        ]).arm(net)
        net.start()
        net.run_until(4)
        dup, delay, oneway = net.faults
        assert (dup.prob, dup.spread, dup.links) == (0.5, 3.0, set(pairs))
        assert (delay.jitter, delay.spike_prob, delay.spike, delay.links) == (
            2.0, 0.25, 8.0, None
        )
        assert oneway.links == set(pairs)
        net.run_until(14)
        assert net.faults == []
