"""Who reads the live action log decides whether the layers write it.

A :class:`~repro.runtime.cluster.RuntimeCluster` hands its shared
:class:`~repro.gcs.recorder.ActionLog` to the layers only when a reader
is armed: the safety monitor, ``obs`` (the log's tracer) or the
``record=`` wiretap (whose observer is how client ``bcast`` / ``cbcast``
reach a replay trace).  With none of them the layers get
``recorder=None`` -- what ``serve --pid`` runs -- and the log stays
empty.
"""

import pytest

from repro.apps.kv_store import KvReplica
from repro.checking.replay import check_replay_determinism
from repro.runtime.cluster import RuntimeCluster

PIDS = ["n1", "n2", "n3"]
WAIT = 30.0
FAST = dict(hb_interval=0.05, hb_timeout=0.25)


def recorders(cluster, pid):
    return cluster.call_node(pid, lambda node: [
        layer.recorder for layer in (node.stack, node.dvs, node.to, node.cb)
    ])


def put_and_apply(cluster, pids, start, count):
    for i in range(start, start + count):
        cluster.call_app(
            pids[i % len(pids)],
            lambda app, i=i: app.put("k{0}".format(i), i),
        )
    total = start + count
    cluster.wait_until(
        lambda: all(cluster.app(p).log_length >= total for p in pids),
        timeout=WAIT, what="{0} puts applied on {1}".format(total, pids),
    )
    return total


def test_unwatched_cluster_records_nothing_even_across_a_restart():
    cluster = RuntimeCluster(
        PIDS, monitor=False, app_factory=lambda node: KvReplica(node.to),
        **FAST
    )
    with cluster:
        cluster.wait_formation(timeout=WAIT)
        total = put_and_apply(cluster, PIDS, 0, 6)
        cluster.kill("n3")
        cluster.wait_formation(["n1", "n2"], timeout=WAIT)
        cluster.restart("n3")
        cluster.wait_formation(timeout=WAIT)
        put_and_apply(cluster, PIDS, total, 3)
        for pid in PIDS:
            assert recorders(cluster, pid) == [None] * 4, pid
        cluster.check()
    assert cluster.log.actions == [] and cluster.log.times == []


@pytest.mark.parametrize("watcher", [
    dict(monitor=True),
    dict(monitor=False, obs=True),
    dict(monitor=False, record=True),
], ids=["monitor", "obs", "record"])
def test_any_one_watcher_wires_the_log_into_every_layer(watcher):
    cluster = RuntimeCluster(
        PIDS, app_factory=lambda node: KvReplica(node.to), **FAST, **watcher
    )
    with cluster:
        cluster.wait_formation(timeout=WAIT)
        put_and_apply(cluster, PIDS, 0, 3)
        for pid in PIDS:
            assert all(
                r is cluster.log for r in recorders(cluster, pid)
            ), pid
            assert len(cluster.log.at("brcv", pid)) == 3, pid
        cluster.check()


def test_a_wiretap_alone_still_captures_client_sends_and_replays():
    with RuntimeCluster(PIDS, monitor=False, record=True, **FAST) as cluster:
        cluster.wait_formation(timeout=WAIT)
        for i in range(3):
            cluster.bcast(PIDS[i], ("to", i), ordering="to")
            cluster.bcast(PIDS[i], ("cb", i), ordering="cb")
        cluster.wait_until(
            lambda: all(
                len(cluster.log.at("brcv", p)) == 3
                and len(cluster.log.at("cb_brcv", p)) == 3
                for p in PIDS
            ),
            timeout=WAIT, what="both tiers delivered everywhere",
        )
        live = {p: cluster.log.at("brcv", p) for p in PIDS}
        trace = cluster.snapshot_trace()
    sends = sorted(
        (e.kind, e.data[0]) for e in trace.events
        if e.kind in ("bcast", "cbcast")
    )
    assert sends == sorted(
        [("bcast", ("to", i)) for i in range(3)]
        + [("cbcast", ("cb", i)) for i in range(3)]
    )
    first, second = check_replay_determinism(trace)
    assert first.deliveries == second.deliveries == live
    assert first.violations == []
