"""Transport loss accounting: queue drops, the queue's high-water mark
and reconnects, counted by the link and read through ``stats()``.

The live chaos work leans on the transport's fair-lossy semantics
(drop-oldest on a full queue, silent drop on a closed link); these
tests make that loss *visible* -- PeerLink counts overflow drops
separately from total drops, and ``RuntimeNode.stats()`` reports each
link's ``queue_drops``, ``queue_high`` and ``connects`` for the
running incarnation.
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
        book = {}
        link = _idle_link(2, book)
        for msg in ("one", "two", "three"):
            link.send_frame(encode_frame(("a", msg)))
        assert link.queue_drops == 1
        assert link.dropped == 1
        # Drop-oldest: the queue now holds the two *newest* frames, and
        # never held more.
        assert link.queue_depth() == 2
        assert link.queue_high == 2
        assert _flushed_frames(link, book) == ["two", "three"]

    def test_closed_link_drop_is_not_a_queue_drop(self):
        link = _idle_link(2)
        asyncio.run(link.close())
        link.send_frame(b"frame")
        assert link.dropped == 1
        assert link.queue_drops == 0
        assert link.queue_high == 0

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
        """Each link's counts, read through ``stats()``: every node
        dialed its peer, and a healthy run drops nothing."""
        pairs = (("n1", "n2"), ("n2", "n1"))
        cluster = RuntimeCluster(["n1", "n2"], hb_interval=0.05,
                                 hb_timeout=0.25)
        with cluster:
            cluster.wait_formation(timeout=WAIT)
            nodes = {
                pid: cluster.call_node(pid, lambda node: node)
                for pid, _ in pairs
            }

            def dialed():
                return all(
                    nodes[pid].stats()["links"].get(peer, {}).get(
                        "connects", 0
                    ) >= 1
                    for pid, peer in pairs
                )

            cluster.wait_until(dialed, timeout=WAIT,
                               what="both peer links connected")
            stats = cluster.stats()
        for pid, peer in pairs:
            link = stats[pid]["links"][peer]
            assert link["queue_drops"] == 0  # a healthy run drops nothing
            assert link["connects"] >= 1  # each node dialed its peer
