"""Unit tests for the live fault interposer (FaultNet).

FaultNet is the simulator's FaultPlane plus what sockets need; these
tests pin the transport-boundary semantics: blocking is symmetric for
partitions and directed for one-way blocks, ``outbound`` is ``None``
on the fast path, ``[]`` on a drop, and the channel clock keeps the
frames of one directed pair in order -- across the end of a fault
window too.
"""

from repro.faults.models import (
    DelayFault,
    DropFault,
    DuplicateFault,
    OneWayBlock,
)
from repro.faults.nemesis import FaultOp, NemesisPlan
from repro.runtime.faultnet import FaultNet, LiveNemesis


class TestPartition:
    def test_unpartitioned_blocks_nothing(self):
        net = FaultNet()
        assert not net.blocked("a", "b")

    def test_partition_blocks_across_and_not_within(self):
        net = FaultNet()
        net.partition([{"a", "b"}, {"c"}])
        assert not net.blocked("a", "b")
        assert not net.blocked("b", "a")
        assert net.blocked("a", "c")
        assert net.blocked("c", "a")

    def test_unlisted_processes_share_component_zero(self):
        # The simulator's rule: listed groups are components 1..n and
        # every unlisted process shares the one extra component 0.
        net = FaultNet()
        net.partition([{"a"}])
        assert net.blocked("a", "z") and net.blocked("z", "a")
        assert not net.blocked("y", "z")
        net.partition([{"x"}, {"a"}])
        assert net.blocked("a", "z") and net.blocked("x", "z")
        assert not net.blocked("y", "z")

    def test_heal_restores_full_connectivity(self):
        net = FaultNet()
        net.partition([{"a"}, {"b"}])
        assert net.blocked("a", "b")
        net.heal()
        assert not net.blocked("a", "b")

    def test_oneway_block_is_directed(self):
        net = FaultNet()
        fault = net.install_fault(OneWayBlock([("a", "b")]))
        assert net.blocked("a", "b")
        assert not net.blocked("b", "a")
        net.remove_fault(fault)
        assert not net.blocked("a", "b")


class TestOutbound:
    def test_no_matching_fault_is_fast_path(self):
        net = FaultNet()
        assert net.outbound("a", "b", 0.0) is None
        net.install_fault(DropFault(1.0, links=[("x", "y")]))
        assert net.outbound("a", "b", 0.0) is None

    def test_certain_drop_returns_empty(self):
        net = FaultNet()
        net.install_fault(DropFault(1.0))
        assert net.outbound("a", "b", 0.0) == []
        assert net.injected_drops == 1

    def test_lossless_fault_returns_one_copy_now(self):
        net = FaultNet()
        net.install_fault(DropFault(0.0))
        assert net.outbound("a", "b", 0.0) == [0.0]

    def test_duplicate_adds_copies(self):
        net = FaultNet(seed=1)
        net.install_fault(DuplicateFault(1.0, spread=0.5))
        delays = net.outbound("a", "b", 0.0)
        assert len(delays) == 2
        assert net.injected_copies == 1

    def test_delay_jitter_is_seed_deterministic(self):
        one = FaultNet(seed=7)
        two = FaultNet(seed=7)
        for net in (one, two):
            net.install_fault(DelayFault(jitter=0.2, spike_prob=0.5,
                                         spike=1.0))
        a = [one.outbound("a", "b", float(i)) for i in range(20)]
        b = [two.outbound("a", "b", float(i)) for i in range(20)]
        assert a == b

    def test_fifo_channel_clock_never_reorders_a_pair(self):
        net = FaultNet(seed=3)
        net.install_fault(DelayFault(jitter=0.5))
        last_at = 0.0
        for i in range(50):
            now = i * 0.01  # sends come faster than the jitter spread
            (delay,) = net.outbound("a", "b", now)
            at = now + delay
            assert at >= last_at
            last_at = at

    def test_fifo_clocks_are_per_directed_pair(self):
        net = FaultNet(seed=3)
        net.install_fault(DelayFault(jitter=5.0, links=[("a", "b")]))
        net.install_fault(DelayFault(jitter=0.0, links=[("b", "a")]))
        net.outbound("a", "b", 0.0)  # winds a->b's clock far forward
        (delay,) = net.outbound("b", "a", 0.0)
        assert delay == 0.0

    def test_frame_after_a_window_queues_behind_its_pending_copies(self):
        net = FaultNet(seed=3)
        fault = net.install_fault(DelayFault(jitter=0.5))
        (delay,) = net.outbound("a", "b", 0.0)
        assert delay > 0.001
        net.remove_fault(fault)
        # No fault matches any more, but the delayed copy has not landed:
        # the next frame must not overtake it (TCP could not).
        after = net.outbound("a", "b", 0.001)
        assert after is not None
        assert 0.001 + after[0] >= delay
        # Once the clock has caught up the fast path is back.
        assert net.outbound("a", "b", delay + 0.001) is None


class _FakeClock:
    def __init__(self):
        self.now = 0.0


class _FakeCluster:
    """The slice of RuntimeCluster that LiveNemesis touches."""

    def __init__(self, faultnet):
        self.faultnet = faultnet
        self.clock = _FakeClock()
        self.killed = []
        self.revived = []
        self.noted = []

    async def nemesis_kill(self, pid):
        self.killed.append(pid)

    async def nemesis_revive(self, pid):
        self.revived.append(pid)

    def note_nemesis(self, op):
        self.noted.append(op)


class TestLiveNemesis:
    def test_arm_schedules_every_op(self):
        import asyncio

        plan = NemesisPlan([
            FaultOp(0.0, "partition", ((("a",), ("b",)),)),
            FaultOp(0.01, "drop", (None, 1.0, 0.1)),
            FaultOp(0.02, "crash", ("b",)),
            FaultOp(0.03, "recover", ("b",)),
            FaultOp(0.06, "heal"),
        ])
        faultnet = FaultNet()
        cluster = _FakeCluster(faultnet)
        nemesis = LiveNemesis(plan, faultnet=faultnet)

        async def run():
            nemesis.arm(cluster)
            await asyncio.sleep(0.08)  # inside the 0.01..0.11 drop window
            mid_drop = faultnet.outbound("a", "z", 0.0)
            await asyncio.sleep(0.15)
            return mid_drop

        mid_drop = asyncio.run(run())
        assert mid_drop == []  # the drop window was live mid-run
        assert len(nemesis.applied) == 5
        assert cluster.killed == ["b"]
        assert cluster.revived == ["b"]
        assert len(cluster.noted) == 5
        assert not faultnet.blocked("a", "b")  # healed
        assert faultnet.faults == []  # window expired

    def test_plan_coercion_from_op_list(self):
        nemesis = LiveNemesis([(1.0, "heal", ())])
        assert isinstance(nemesis.plan, NemesisPlan)
        assert nemesis.plan.ops[0].kind == "heal"
