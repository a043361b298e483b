"""One fault plane, two hosts: the simulator's ``Network`` and the live
runtime's ``FaultNet`` must agree on who can reach whom after the same
fault ops, because a nemesis plan is replayed against both.
"""

from itertools import permutations

import pytest

from repro.faults.models import OneWayBlock
from repro.net import Network, Node
from repro.runtime.faultnet import FaultNet

PIDS = ("p1", "p2", "p3")

#: (method, args) applied to both hosts, in order; reachability is
#: compared after every step.
OPS = (
    ("partition", ([{"p3"}],)),
    ("partition", ([{"p1", "p2"}],)),
    ("partition", ([{"p1"}, {"p2"}, {"p3"}],)),
    ("heal", ()),
    ("install_fault", (OneWayBlock([("p1", "p2")]),)),
    ("partition", ([{"p2", "p3"}],)),
    ("heal", ()),
)


def _hosts():
    net = Network(seed=0)
    for pid in PIDS:
        net.add_node(Node(pid))
    return net, FaultNet(seed=0)


def _sim_blocked(net, a, b):
    return not net.connected(a, b) or net.link_blocked(a, b)


@pytest.mark.parametrize("steps", range(1, len(OPS) + 1))
def test_same_ops_same_reachability(steps):
    net, faultnet = _hosts()
    for method, args in OPS[:steps]:
        getattr(net, method)(*args)
        getattr(faultnet, method)(*args)
    for a, b in permutations(PIDS, 2):
        assert _sim_blocked(net, a, b) == faultnet.blocked(a, b), (a, b)


def test_listing_one_group_isolates_it_on_both_hosts():
    net, faultnet = _hosts()
    net.partition([{"p3"}])
    faultnet.partition([{"p3"}])
    for host_blocked in (
        lambda a, b: _sim_blocked(net, a, b), faultnet.blocked
    ):
        assert host_blocked("p1", "p3") and host_blocked("p3", "p1")
        assert host_blocked("p2", "p3") and host_blocked("p3", "p2")
        assert not host_blocked("p1", "p2")
        assert not host_blocked("p2", "p1")
