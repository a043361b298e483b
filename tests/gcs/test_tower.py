"""The VS->DVS->{TO,CB} tower is wired in one place.

Every host -- the simulated cluster, the live node and the trace
replayer -- must expose the same five objects wired the same way, and
only :mod:`repro.gcs.tower` may know the routing decision.
"""

import os

from repro.cb.messages import CbCast
from repro.checking.replay import _replay_tower
from repro.core import make_view
from repro.dvs.ablation import NoMajorityDvsLayer
from repro.gcs import (
    CbLayer,
    DvsFanout,
    DvsLayer,
    ToLayer,
    Tower,
    VsStackNode,
)
from repro.gcs.cluster import Cluster
from repro.runtime.node import RuntimeNode

PIDS = ["p1", "p2", "p3"]
V0 = make_view(0, PIDS)


def assert_wired(stack, dvs, fanout, to, cb, dvs_cls=DvsLayer):
    assert type(stack) is VsStackNode
    assert type(dvs) is dvs_cls
    assert type(fanout) is DvsFanout
    assert type(to) is ToLayer
    assert type(cb) is CbLayer
    assert stack.listener is dvs
    assert dvs.stack is stack
    assert dvs.listener is fanout
    assert fanout.dvs is dvs
    to_port, cb_port = fanout._ports
    assert to_port.listener is to and to_port.claims is None
    assert cb_port.listener is cb and cb_port.claims is CbCast


def parts(tower):
    return tower.stack, tower.dvs, tower.fanout, tower.to, tower.cb


def test_tower_wires_both_orderings_behind_one_fanout():
    assert_wired(*parts(Tower("p1", V0)))


def test_dvs_only_tower_stops_at_the_dvs_layer():
    tower = Tower("p1", V0, orderings=False)
    assert tower.stack.listener is tower.dvs
    assert (tower.fanout, tower.to, tower.cb) == (None, None, None)


def test_every_host_exposes_the_same_tower():
    cluster = Cluster(PIDS)
    for pid in PIDS:
        assert_wired(
            cluster.stacks[pid], cluster.dvs[pid], cluster.fanouts[pid],
            cluster.to[pid], cluster.cb[pid],
        )
    node = RuntimeNode("p1", {}, V0, dvs_factory=NoMajorityDvsLayer)
    assert_wired(*parts(node.tower), dvs_cls=NoMajorityDvsLayer)
    assert (node.stack, node.dvs, node.to, node.cb) == (
        node.tower.stack, node.tower.dvs, node.tower.to, node.tower.cb
    )

    class Net:
        def set_timer(self, pid, delay, tag):
            return None

    replayed = _replay_tower("p1", V0, None, DvsLayer, None, Net())
    assert_wired(*parts(replayed))


def test_fanout_is_constructed_in_exactly_one_module():
    import repro

    root = os.path.dirname(repro.__file__)
    builders = []
    for folder, _, names in os.walk(root):
        for name in names:
            if not name.endswith(".py"):
                continue
            path = os.path.join(folder, name)
            with open(path, encoding="utf-8") as handle:
                if "DvsFanout(" in handle.read().replace(
                    "class DvsFanout(", ""
                ):
                    builders.append(os.path.relpath(path, root))
    assert builders == [os.path.join("gcs", "tower.py")]
