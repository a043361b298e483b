"""Transport loss accounting: queue drops and reconnects as metrics.

The live chaos work leans on the transport's fair-lossy semantics
(drop-oldest on a full queue, silent drop on a closed link); these
tests make that loss *visible* -- PeerLink counts overflow drops
separately from total drops and fires ``on_queue_drop``, and the node
surfaces both queue drops and reconnects as obs MetricsRegistry
counters under ``runtime.<pid>.transport.*``.
"""

import asyncio

from repro.runtime.cluster import RuntimeCluster
from repro.runtime.codec import encode_frame
from repro.runtime.transport import Listener, PeerLink

WAIT = 60.0


def _idle_link(queue_limit, book=None, **kwargs):
    """A PeerLink that was never started: it is simply down, so
    send_frame queues and the drop accounting is synchronous -- no
    event loop is needed.  ``book`` is where it will look up ``"b"``."""
    book = {} if book is None else book
    return PeerLink("a", "b", resolve=lambda: book["b"],
                    queue_limit=queue_limit, **kwargs)


def _flushed_frames(link, book):
    """Bring peer ``"b"`` up, start ``link`` and return the messages it
    flushes, in order (the Hello excluded)."""

    async def scenario():
        frames = []
        listener = await Listener(
            lambda src, msg: frames.append(msg)
        ).start()
        book["b"] = ("127.0.0.1", listener.port)
        queued = link.queue_depth()
        link.start()
        while len(frames) < queued + 1:
            await asyncio.sleep(0.01)
        await link.close()
        await listener.close()
        return frames[1:]

    return asyncio.run(asyncio.wait_for(scenario(), WAIT))


class TestPeerLinkQueueDrops:
    def test_overflow_drops_oldest_and_counts(self):
        drops = []
        book = {}
        link = _idle_link(2, book, on_queue_drop=drops.append)
        for msg in ("one", "two", "three"):
            link.send_frame(encode_frame(("a", msg)))
        assert link.queue_drops == 1
        assert link.dropped == 1
        assert drops == ["b"]
        # Drop-oldest: the queue now holds the two *newest* frames.
        assert link.queue_depth() == 2
        assert _flushed_frames(link, book) == ["two", "three"]

    def test_closed_link_drop_is_not_a_queue_drop(self):
        drops = []
        link = _idle_link(2, on_queue_drop=drops.append)
        asyncio.run(link.close())
        link.send_frame(b"frame")
        assert link.dropped == 1
        assert link.queue_drops == 0
        assert drops == []

    def test_queue_drops_are_a_subset_of_dropped(self):
        link = _idle_link(1)
        for i in range(5):
            link.send_frame(b"x%d" % i)
        asyncio.run(link.close())
        link.send_frame(b"late")
        assert link.queue_drops == 4
        assert link.dropped == 5


class TestClusterMetrics:
    def test_queue_drops_and_reconnects_are_registered_counters(self):
        cluster = RuntimeCluster(["n1", "n2"], obs=True,
                                 hb_interval=0.05, hb_timeout=0.25)

        def dialed():
            # Formation is instant (every node boots with the full
            # initial view), so wait for the dials themselves.
            return all(
                cluster.obs.metrics.counter(
                    "runtime.{0}.transport.reconnects".format(pid)
                ).value >= 1
                for pid in ("n1", "n2")
            )

        with cluster:
            cluster.wait_formation(timeout=WAIT)
            cluster.wait_until(dialed, timeout=WAIT,
                               what="both peer links connected")
            snap = cluster.metrics_snapshot()
        for pid in ("n1", "n2"):
            base = "runtime.{0}.transport.".format(pid)
            drops = snap[base + "queue_drops"]
            assert drops["type"] == "counter"
            assert drops["value"] == 0  # a healthy run drops nothing
            connects = snap[base + "reconnects"]
            assert connects["type"] == "counter"
            assert connects["value"] >= 1  # each node dialed its peer
