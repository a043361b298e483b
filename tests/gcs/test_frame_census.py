"""What the stack puts on the (simulated) wire, counted by message type.

The VS stack tracks no stability, so neither the tower nor a bare VS
stack sends ``Ack`` or ``SafeNote``; each delivers every payload in one
order and holds nothing afterwards.
"""

from collections import Counter

from repro.cb.messages import CbCast
from repro.dvs.vs_to_dvs import AckMsg
from repro.gcs.cluster import Cluster
from tests.gcs.test_vs_stack import make_stack

PIDS = ["a", "b", "c"]
K = 12


def sends_by_type(net, since):
    return Counter(
        type(details[2]).__name__
        for _, kind, details in list(net.log)[since:]
        if kind == "send"
    )


class TestTowerCensus:
    def run(self):
        cluster = Cluster(PIDS, seed=16).start()
        cluster.settle(max_time=60)
        wire_mark, log_mark = len(cluster.net.log), len(cluster.log.actions)
        for i in range(K):
            cluster.bcast(PIDS[i % 3], ("req", i))
        cluster.settle(max_time=2000)
        return (
            cluster,
            sends_by_type(cluster.net, wire_mark),
            cluster.log.actions[log_mark:],
        )

    def test_no_vs_stability_traffic_and_coalesced_acks(self):
        cluster, sends, actions = self.run()
        names = Counter(a.name for a in actions)
        assert sends["Ack"] == sends["SafeNote"] == 0
        assert names["vs_safe"] == 0
        ack_multicasts = sum(
            1 for a in actions
            if a.name == "vs_gpsnd" and isinstance(a.params[0], AckMsg)
        )
        assert 0 < ack_multicasts <= names["dvs_gprcv"]
        # Nothing was lost with the traffic: every request is delivered
        # to every client, reported safe and totally ordered, everywhere.
        assert names["dvs_gprcv"] == names["dvs_safe"] == 3 * K
        assert names["brcv"] == 3 * K
        # Pinned for this seed.  The K requests are issued at one
        # instant, so b's and c's acks coalesce to two: AckMsg(4) and,
        # on its echo, one for everything delivered meanwhile.  The
        # sequencer a orders its own payloads with no Data hop, so its
        # first ack is back while b's and c's requests still arrive one
        # by one: a acks three times (4, 7, 15).
        assert ack_multicasts == 7
        # Data only from b and c: 8 requests + 4 acks.  The K + 7 slots
        # leave in 11 frames per member, 8 single Ordered and runs of 4
        # (a's own requests, one loop turn), 3 and 4 -- 45 sends where
        # one Ordered per slot and a Data to itself sent 72.
        assert sends == {"Data": 12, "Ordered": 3 * 8, "OrderedRun": 3 * 3}
        for pid in PIDS:
            assert cluster.stacks[pid].ordering.buffer == {}

    def test_census_is_deterministic(self):
        assert self.run()[1:] == self.run()[1:]


class TestMixedTowerAcksOnDemand:
    """A member publishes its count only for deliveries whose reader
    wants ``dvs_safe`` (TO does, CB does not) -- and a count still means
    "k client deliveries", CB's included."""

    @staticmethod
    def at(cluster, name, pid, since=0):
        return [
            a.params[:2] for a in cluster.log.actions[since:]
            if a.name == name and a.params[-1] == pid
        ]

    @staticmethod
    def ack_multicasts(cluster, since=0):
        return sum(
            1 for a in cluster.log.actions[since:]
            if a.name == "vs_gpsnd" and isinstance(a.params[0], AckMsg)
        )

    def test_scripted_interleaving_of_to_and_cb(self):
        cluster = Cluster(PIDS, seed=22).start()
        cluster.settle(max_time=60)
        start = len(cluster.log.actions)
        base = {p: len(cluster.dvs[p].client_history) for p in PIDS}
        for i in range(K):
            cluster.bcast(
                PIDS[i % 3], ("req", i), ordering="cb" if i % 2 else "to"
            )
        cluster.settle(max_time=2000)
        assert self.ack_multicasts(cluster, start) > 0
        for pid in PIDS:
            dvs = cluster.dvs[pid]
            got = self.at(cluster, "dvs_gprcv", pid, start)
            safe = self.at(cluster, "dvs_safe", pid, start)
            assert len(got) == K
            assert len(dvs.client_history) == base[pid] + K
            # Every TO payload is reported safe; the CB entries between
            # them are released in order with the counts that cover them.
            assert safe == got[:len(safe)]
            wanted = [m for m in got if not isinstance(m[0], CbCast)]
            assert len(wanted) == K // 2
            assert [m for m in safe if m in wanted] == wanted
            assert dvs.ack_wanted <= dvs.safe_ptr

        # A run of CB traffic: delivered everywhere, acknowledged by no
        # one, reported safe to no one.
        mark = len(cluster.log.actions)
        for i in range(6):
            cluster.bcast(PIDS[i % 3], ("more", i), ordering="cb")
        cluster.settle(max_time=2000)
        assert self.ack_multicasts(cluster, mark) == 0
        for pid in PIDS:
            assert len(self.at(cluster, "dvs_gprcv", pid, mark)) == 6
            assert self.at(cluster, "dvs_safe", pid, mark) == []
            dvs = cluster.dvs[pid]
            assert dvs.safe_ptr <= len(dvs.client_history) - 6

        # One TO request later the counts cover the whole CB tail too.
        cluster.bcast("b", ("req", K))
        cluster.settle(max_time=2000)
        for pid in PIDS:
            dvs = cluster.dvs[pid]
            assert dvs.safe_ptr == len(dvs.client_history)
            assert self.at(cluster, "dvs_safe", pid, start) == self.at(
                cluster, "dvs_gprcv", pid, start
            )
            assert len(self.at(cluster, "dvs_safe", pid, start)) == K + 7


class TestVsOnlyStackSendsNoStability:
    def test_one_order_and_state_drained(self):
        net, nodes, listeners, log, v0 = make_stack(PIDS, seed=16)
        net.run_to_quiescence(max_time=60)
        mark = len(net.log)
        for i in range(K):
            nodes[PIDS[i % 3]].gpsnd(("req", i))
        net.run_to_quiescence(max_time=2000)
        # Data only from b and c.  The K slots leave as one run of a's
        # own four, two runs of two (Data that channel FIFO delivers at
        # the instant of the one before) and four single Ordered.
        assert sends_by_type(net, mark) == {
            "Data": 8, "Ordered": 3 * 4, "OrderedRun": 3 * 3,
        }
        orders = {tuple(listeners[pid].delivered) for pid in PIDS}
        assert len(orders) == 1
        assert sorted(payload for payload, _ in orders.pop()) == [
            ("req", i) for i in range(K)
        ]
        for pid in PIDS:
            assert nodes[pid].ordering.buffer == {}
