"""Span stitching across real sockets: a 3-node loopback cluster with
``obs=True`` must produce complete, orphan-free spans whose stages sum
exactly to the end-to-end latency, plus live transport counts."""

import threading

import pytest

from repro.apps.kv_store import KvReplica
from repro.obs import Tracer
from repro.runtime.cluster import RuntimeCluster

PIDS = ["n1", "n2", "n3"]
WAIT = 60.0
REQUESTS = 12


@pytest.fixture
def cluster():
    c = RuntimeCluster(
        PIDS,
        app_factory=lambda node: KvReplica(node.to),
        hb_interval=0.05,
        hb_timeout=0.25,
        obs=True,
    )
    with c:
        c.wait_formation(timeout=WAIT)
        for i in range(REQUESTS):
            pid = PIDS[i % len(PIDS)]
            c.call_app(
                pid, lambda app, i=i: app.put("k{0}".format(i), i)
            )
        c.wait_until(
            lambda: all(
                c.app(pid).log_length >= REQUESTS for pid in PIDS
            ),
            timeout=WAIT,
            what="all requests applied",
        )
        yield c


def test_spans_stitch_across_the_wire_with_zero_orphans(cluster):
    trace = cluster.trace_snapshot()
    assert trace["orphans"] == []
    assert trace["summary"]["deliveries"] == REQUESTS * len(PIDS)
    assert trace["summary"]["messages"] == REQUESTS
    assert trace["summary"]["events_dropped"] == 0
    for row in trace["deliveries"]:
        assert row["total_ms"] > 0
        assert sum(row["stages_ms"].values()) == pytest.approx(
            row["total_ms"], rel=1e-9, abs=1e-9
        )


def test_cross_node_deliveries_show_wire_time(cluster):
    trace = cluster.trace_snapshot()
    remote = [
        row for row in trace["deliveries"]
        if row["dst"] != row["origin"]
    ]
    assert remote
    # Ordered frames to a remote member really crossed TCP: the wire
    # stage must be visible (strictly positive) on at least most of
    # them (a hop collapses to 0 only if its endpoints coincide).
    with_wire = [r for r in remote if r["stages_ms"]["wire"] > 0]
    assert len(with_wire) >= len(remote) * 0.8


def test_live_metrics_cover_transport_and_gcs(cluster):
    """Action counts from ``obs``; transport counts from each node's
    ``stats()``, where the link and the listener keep them."""
    combined = cluster.obs_snapshot()
    assert combined["counts"]["bcast"] == REQUESTS
    assert combined["counts"]["brcv"] == REQUESTS * len(PIDS)
    assert combined["trace"]["orphans"] == 0
    assert sorted(combined["nodes"]) == PIDS
    for pid, stats in combined["nodes"].items():
        for name in ("frames_out", "bytes_out", "frames_in", "bytes_in",
                     "reports"):
            assert stats[name] > 0, (pid, name)
        links = stats["links"].values()
        # Every node dialed its peers, queued a frame on some link
        # before that link was up, and dropped nothing.
        assert all(link["connects"] >= 1 for link in links)
        assert max(link["queue_high"] for link in links) > 0, pid
        assert all(link["queue_drops"] == 0 for link in links)


def test_tier_total_is_the_exact_end_to_end_latency(cluster):
    trace = cluster.trace_snapshot()
    summary = trace["summary"]
    total = summary["stages"]["total.to"]
    assert total["count"] == summary["deliveries_by_tier"]["to"]
    assert total["count"] == summary["deliveries"]
    assert "total.cb" not in summary["stages"]
    assert total["max_ms"] == max(
        row["total_ms"] for row in trace["deliveries"]
    )


def test_reading_never_stitches_on_the_loop_thread(cluster, monkeypatch):
    """The facade copies the log on the loop and stitches the copy on
    the caller's thread: a long stitch on the loop would hold back the
    heartbeats and re-form the group it is reading."""
    threads = []
    group = Tracer._by_key

    def recording(self):
        threads.append(threading.current_thread())
        return group(self)

    monkeypatch.setattr(Tracer, "_by_key", recording)
    cluster.trace_snapshot()
    cluster.obs_snapshot()
    assert threads
    assert set(threads) == {threading.current_thread()}
