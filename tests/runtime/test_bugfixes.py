"""Regression tests for the runtime hot-path fixes.

Each test pins one specific bug:

1. reconnect storm -- a crash-looping peer must see a *bounded* dial
   rate (backoff may not reset on a connect that dies young);
2. deprecated ``asyncio.get_event_loop()`` inside coroutines;
3. broadcast fan-out re-encoding the identical frame once per link;
4. ``except (CancelledError, Exception)`` swallowing real teardown
   errors (the second arm was dead: CancelledError isn't an Exception),
   and a failing heartbeat tick going unrecorded;
5. the heartbeat estimator never pruning ``_last_heard`` evidence for
   peers removed from the address book;
6. ``LiveNemesis`` dropping its crash/recover task references, so a
   failed kill/revive was silently swallowed by the loop;
7. the node's error buffer growing without bound (every received frame
   can append to it);
8. inbound frames dispatched without validation: unknown senders fed
   the connectivity estimator and forged payloads reached the stack;
9. the decoder reading what the encoder cannot write (``NaN``,
   ``Infinity``, ``1e999``): one forged frame, relayed by the
   sequencer, wedged the view.
"""

import asyncio
import pathlib
import socket
import warnings

import pytest

import repro.runtime
import repro.runtime.codec
import repro.runtime.node
from repro.core.viewids import ViewId
from repro.core.views import View
from repro.apps.kv_store import KvReplica
from repro.gcs.messages import Data, OrderedRun
from repro.runtime.cluster import RuntimeCluster
from repro.runtime.codec import CodecError, Heartbeat, Hello, encode_frame
from repro.runtime.faultnet import FaultNet, LiveNemesis
from repro.runtime.heartbeat import ConnectivityEstimator
from repro.runtime.node import ERROR_LIMIT, RuntimeNode
from repro.runtime.transport import PeerLink


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, 30.0))


class StubClock:
    def __init__(self, now=0.0):
        self.now = now


# -- 1. reconnect storm ------------------------------------------------------


def test_backoff_keeps_growing_against_a_crash_looping_peer():
    """An accept-then-die peer used to reset the backoff on every
    successful connect, turning the link into a tight redial loop."""

    async def scenario():
        accepts = []

        async def slam(reader, writer):
            accepts.append(1)
            writer.close()

        server = await asyncio.start_server(slam, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        link = PeerLink(
            "a", "b", resolve=lambda: ("127.0.0.1", port),
            retry_min=0.02, retry_max=0.2,
        ).start()

        async def pump():
            # Keep frames flowing so a dead connection is noticed at
            # the next write instead of blocking on an empty queue.
            while True:
                link.send_frame(encode_frame(("a", ("tick", len(accepts)))))
                await asyncio.sleep(0.005)

        pump_task = asyncio.ensure_future(pump())
        await asyncio.sleep(0.9)
        pump_task.cancel()
        connects = link.connects
        await link.close()
        server.close()
        await server.wait_closed()
        # Zero-jitter minimum backoff schedule within 0.9s:
        # 0.02+0.04+0.08+0.16+0.2+0.2+0.2 -- at most ~8 dials.  The
        # pre-fix reset-on-connect behaviour redials every ~0.02-0.04s
        # (25+ dials); anything near that is the storm coming back.
        assert 1 <= connects <= 10, connects

    run(scenario())


def test_backoff_resets_after_a_stable_connection():
    """The flip side: a connection that *survives* ``stable_after``
    returns the link to fast retries, so a genuinely recovered peer is
    not punished with ``retry_max`` delays on the next blip."""

    async def scenario():
        frames = []

        async def accept(reader, writer):
            try:
                while await reader.read(1 << 16):
                    frames.append(1)
            finally:
                writer.close()

        server = await asyncio.start_server(accept, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        link = PeerLink(
            "a", "b", resolve=lambda: ("127.0.0.1", port),
            retry_min=0.02, retry_max=0.2, stable_after=0.05,
        ).start()
        link.send_frame(encode_frame(("a", ("warm", 0))))
        await asyncio.sleep(0.2)  # well past stable_after
        assert link.connects == 1
        await link.close()
        server.close()
        await server.wait_closed()

    run(scenario())


# -- 2. get_event_loop deprecation -------------------------------------------


def test_runtime_package_never_calls_get_event_loop():
    """``asyncio.get_event_loop()`` inside a coroutine is deprecated
    (and wrong once loops stop being auto-created): the runtime package
    must use ``get_running_loop()``."""
    package_dir = pathlib.Path(repro.runtime.__file__).parent
    offenders = [
        path.name
        for path in sorted(package_dir.glob("*.py"))
        if "get_event_loop" in path.read_text(encoding="utf-8")
    ]
    assert offenders == []


def test_node_start_emits_no_deprecation_warnings():
    async def scenario():
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            book = {}
            view = View(ViewId(0, ""), frozenset(["a"]))
            node = RuntimeNode("a", book, initial_view=view)
            await node.start()
            await node.stop()

    run(scenario())


# -- 3. encode-once broadcast fan-out ----------------------------------------


@pytest.fixture
def counted_codec(monkeypatch):
    calls = []
    real = repro.runtime.node.encode_frame

    def counting(envelope):
        calls.append(envelope)
        return real(envelope)

    monkeypatch.setattr(repro.runtime.node, "encode_frame", counting)
    return calls


def test_broadcast_encodes_the_frame_once_for_all_peers(counted_codec):
    async def scenario():
        pids = ["a", "b", "c", "d"]
        view = View(ViewId(0, ""), frozenset(pids))
        book = {}
        node = RuntimeNode("a", book, initial_view=view)
        await node.start()
        # Dead-end peer entries: links queue while dialing fails, which
        # is all the encode path needs.
        for peer in ["b", "c", "d"]:
            book[peer] = ("127.0.0.1", 1)
        counted_codec.clear()
        node.broadcast("a", pids, ("payload", 42))
        fanout = [e for e in counted_codec if e[1] == ("payload", 42)]
        assert len(fanout) == 1  # one encode for b, c, d (self is local)
        counted_codec.clear()
        node._send_heartbeats()
        assert len(counted_codec) == 1  # one beacon encode per round
        await node.stop()

    run(scenario())


def test_unicast_send_still_encodes_per_message(counted_codec):
    async def scenario():
        view = View(ViewId(0, ""), frozenset(["a", "b"]))
        book = {"b": ("127.0.0.1", 1)}
        node = RuntimeNode("a", book, initial_view=view)
        await node.start()
        counted_codec.clear()
        node.send("a", "b", ("one", 1))
        node.send("a", "b", ("two", 2))
        assert len(counted_codec) == 2
        await node.stop()

    run(scenario())


# -- 4. CancelledError vs Exception in teardown ------------------------------


def _resolve_with_a_bug():
    # Not one of the retryable resolution failures: it ends the redial
    # coroutine, and ``close()`` is where that has to come out.
    raise RuntimeError("teardown bug")


def test_link_close_routes_teardown_errors_to_on_error():
    async def scenario():
        errors = []
        link = PeerLink(
            "a", "b", resolve=_resolve_with_a_bug, on_error=errors.append,
        ).start()
        await asyncio.sleep(0)
        await link.close()
        assert [type(e) for e in errors] == [RuntimeError]

    run(scenario())


def test_link_close_raises_without_an_error_sink():
    async def scenario():
        link = PeerLink("a", "b", resolve=_resolve_with_a_bug).start()
        await asyncio.sleep(0)
        # Pre-fix, `except (CancelledError, Exception)` silently ate
        # this; a real teardown error must surface somewhere.
        with pytest.raises(RuntimeError):
            await link.close()

    run(scenario())


def test_link_close_reaps_the_redial_of_a_lost_connection():
    """The redial a lost connection starts is the link's task like the
    first dial: ``close()`` must cancel it while it backs off, or it
    outlives the link with nobody to hear its exception."""
    async def scenario():
        accepted = []
        refused = asyncio.Event()

        async def accept(reader, writer):
            accepted.append(writer)

        server = await asyncio.start_server(accept, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        link = PeerLink(
            "a", "b", resolve=lambda: ("127.0.0.1", port),
            retry_min=5.0, retry_max=5.0, stable_after=0.0,
            on_refused=lambda peer: refused.set(),
        ).start()
        while not accepted:
            await asyncio.sleep(0.01)
        # The peer's listener goes, then its end of the connection: the
        # redial is refused at once and backs off for seconds.
        server.close()
        accepted[0].close()
        await server.wait_closed()
        await asyncio.wait_for(refused.wait(), 5.0)
        await link.close()
        dialling = [
            task for task in asyncio.all_tasks()
            if task.get_coro().__qualname__ == "PeerLink._dial"
        ]
        assert dialling == []

    run(scenario())


def test_a_failing_heartbeat_tick_is_recorded_and_the_tick_goes_on():
    """The estimator has no task whose teardown could hide an error: the
    node drives ``poll`` from the loop, so a failing poll lands in
    ``errors`` like a failing timer, and the next tick still runs."""
    async def scenario():
        view = View(ViewId(0, ""), frozenset(["a"]))
        node = RuntimeNode("a", {}, initial_view=view, hb_interval=0.01)
        await node.start()
        polls = []

        def failing_poll():
            polls.append(node.clock.now)
            raise RuntimeError("poll bug")

        node._estimator.poll = failing_poll
        while len(polls) < 3:
            await asyncio.sleep(0.01)
        await node.stop()
        assert {type(e) for e in node.errors} == {RuntimeError}
        stopped_at = len(polls)
        await asyncio.sleep(0.05)
        assert len(polls) == stopped_at  # stop() cancels the tick

    run(scenario())


def test_cancelled_teardown_stays_silent():
    async def scenario():
        errors = []
        link = PeerLink(
            "a", "b", resolve=lambda: ("127.0.0.1", 1),
            on_error=errors.append,
        ).start()
        await link.close()  # plain cancellation: not an error
        assert errors == []

    run(scenario())


# -- 5. heartbeat evidence pruning -------------------------------------------


def test_estimator_prunes_evidence_for_removed_peers():
    clock = StubClock()
    book = ["b", "c"]
    reports = []
    est = ConnectivityEstimator(
        "a", peers=lambda: list(book), clock=clock,
        send_heartbeats=lambda: None, notify=reports.append,
        interval=0.05, timeout=0.2, grace=0.0,
    )
    est.heard("b")
    est.heard("c")
    assert est.poll() == frozenset(["a", "b", "c"])

    # The book shrinks: evidence for the removed peer must go with it.
    book.remove("b")
    clock.now = 0.1
    assert est.poll() == frozenset(["a", "c"])
    assert "b" not in est._last_heard

    # Re-adding the peer inside the old horizon must NOT resurrect it
    # from stale timestamps: it has to prove itself alive again.
    book.append("b")
    clock.now = 0.15
    assert est.poll() == frozenset(["a", "c"])
    est.heard("b")
    assert est.poll() == frozenset(["a", "b", "c"])
    assert reports[-1] == frozenset(["a", "b", "c"])


def test_estimator_evidence_map_stays_bounded_over_churn():
    clock = StubClock()
    book = []
    est = ConnectivityEstimator(
        "a", peers=lambda: list(book), clock=clock,
        send_heartbeats=lambda: None, notify=lambda c: None,
        grace=0.0,
    )
    for generation in range(50):
        peer = "peer-{0}".format(generation)
        book[:] = [peer]
        est.heard(peer)
        clock.now += 1.0
        est.poll()
    # Pre-fix this held all 50 dead generations forever.
    assert set(est._last_heard) == {"peer-49"}

# -- 6. nemesis task references ----------------------------------------------


@pytest.mark.parametrize("kind", ["crash", "recover"])
def test_nemesis_crash_failures_are_captured_not_lost(kind):
    """``_apply`` used to drop the ``ensure_future`` result: a failing
    kill/revive was garbage-collected with its exception unobserved."""

    class _Cluster:
        def __init__(self):
            self.faultnet = FaultNet()
            self.clock = StubClock()
            self.noted = []

        def note_nemesis(self, op):
            self.noted.append(op)

        async def nemesis_kill(self, pid):
            raise RuntimeError("kill failed: " + pid)

        async def nemesis_revive(self, pid):
            raise RuntimeError("revive failed: " + pid)

    async def scenario():
        nemesis = LiveNemesis([(0.0, kind, ("p1",))])
        nemesis.arm(_Cluster())
        await asyncio.sleep(0.05)
        assert [type(e) for e in nemesis.errors] == [RuntimeError]
        assert nemesis.tasks == set()  # reaped after completion

    run(scenario())


# -- 7. bounded error buffer -------------------------------------------------


def test_node_error_buffer_is_bounded():
    """Every received frame can append to ``errors``; a hostile peer
    must not be able to grow it forever.  Newest entries win."""
    view = View(ViewId(0, ""), frozenset(["a"]))
    node = RuntimeNode("a", {}, initial_view=view)
    overflow = ERROR_LIMIT + 100
    for index in range(overflow):
        node.errors.append(RuntimeError(str(index)))
    assert len(node.errors) == ERROR_LIMIT
    assert str(node.errors[-1]) == str(overflow - 1)


# -- 8. inbound frame validation ---------------------------------------------


def test_forged_and_unknown_frames_are_dropped_before_dispatch():
    async def scenario():
        view = View(ViewId(0, ""), frozenset(["a", "b"]))
        book = {}
        node = RuntimeNode("a", book, initial_view=view)
        await node.start()
        book["b"] = ("127.0.0.1", 1)

        # Unknown sender: never reaches the estimator.
        node._on_frame("evil", Heartbeat())
        assert node.dropped_invalid == 1
        assert "evil" not in node._estimator._last_heard

        # Known sender, forged payload (pid must be a str).
        node._on_frame("b", Hello(pid=7))
        assert node.dropped_invalid == 2
        assert "b" not in node._estimator._last_heard

        # A well-formed frame from a known peer still lands.
        node._on_frame("b", Heartbeat())
        assert node.dropped_invalid == 2
        assert "b" in node._estimator._last_heard
        assert node.stats()["dropped_invalid"] == 2
        await node.stop()

    run(scenario())


# -- 9. decode accepts only what encode can produce ---------------------------


def test_a_forged_nan_frame_is_rejected_and_the_view_keeps_delivering():
    """A ``Data`` frame whose payload held ``["f",NaN]`` used to decode
    at the sequencer, which took a slot for it, delivered it to itself
    and then failed to *re*-encode the ``Ordered`` (``CodecError`` into
    ``errors``, broadcast abandoned): the peers never saw that slot,
    buffered everything behind it, and no later request was delivered
    anywhere until the next view.  Now the frame dies in the decoder:
    the connection is dropped and counted, nothing reaches the stack.
    Version 4 writes a float natively, so each forgery is one literal
    in place of ``1.5``: ``NaN``, ``Infinity``, and ``1e999``, which
    parses to an infinity."""
    pids = ["n1", "n2", "n3"]
    cluster = RuntimeCluster(
        pids, app_factory=lambda node: KvReplica(node.to),
        hb_interval=0.05, hb_timeout=0.25,
    )
    with cluster:
        cluster.wait_formation(timeout=30.0)
        # n1 = min(view) is the sequencer; pose as n2 towards it.
        n1 = cluster.call_node("n1", lambda node: node)
        port, vid = cluster.call_node(
            "n1", lambda node: (node.port, node.stack.view.id)
        )
        honest = encode_frame(("n2", Data(vid, ("put", "k", 1.5), "n2")))
        body = honest[4:]
        assert body.count(b",1.5]") == 1
        for count, literal in enumerate((b"NaN", b"Infinity", b"1e999"), 1):
            forged = body.replace(b",1.5]", b"," + literal + b"]")
            with socket.create_connection(("127.0.0.1", port)) as raw:
                raw.sendall(
                    encode_frame(("n2", Hello("n2")))
                    + len(forged).to_bytes(4, "big") + forged
                )
                cluster.wait_until(
                    lambda: n1.stats()["rejected"] == count,
                    what="the forged frame to be rejected",
                )
        cluster.call_app("n2", lambda app: app.put("after", "forgery"))
        cluster.wait_until(
            lambda: all(
                cluster.app(pid).log_length >= 1 for pid in pids
            ),
            timeout=20.0, what="the next request at all three nodes",
        )
        assert cluster.errors() == {}
        cluster.check()


# -- 10. a forged sequencer run stops at the receive gate ---------------------


def test_a_forged_run_is_counted_invalid_and_never_reaches_the_stack():
    """An ``OrderedRun`` the members' handler could not unpack -- no
    entries, an entry that is not a pair, a sender that is not a string
    -- decodes (the codec checks a container by its outer type), so the
    receive gate must refuse it: counted in ``dropped_invalid``, never
    an exception in ``node.errors``, and the view keeps delivering."""
    pids = ["n1", "n2", "n3"]
    cluster = RuntimeCluster(
        pids, app_factory=lambda node: KvReplica(node.to),
        hb_interval=0.05, hb_timeout=0.25,
    )
    with cluster:
        cluster.wait_formation(timeout=30.0)
        n2 = cluster.call_node("n2", lambda node: node)
        port, vid, seq = cluster.call_node("n2", lambda node: (
            node.port, node.stack.view.id, node.stack.ordering.next_deliver,
        ))
        forged = [
            OrderedRun(vid, seq, ()),
            OrderedRun(vid, seq, (("x", "n1"), ("bare",))),
            OrderedRun(vid, seq, ((("put", "k", 1), 7),)),
        ]
        # Pose as n1, the sequencer, towards n2.
        with socket.create_connection(("127.0.0.1", port)) as raw:
            raw.sendall(encode_frame(("n1", Hello("n1"))) + b"".join(
                encode_frame(("n1", run)) for run in forged
            ))
            cluster.wait_until(
                lambda: n2.stats()["dropped_invalid"] == len(forged),
                what="the forged runs to be dropped",
            )
        assert n2.stats()["rejected"] == 0  # decoded, then refused
        cluster.call_app("n3", lambda app: app.put("after", "forgery"))
        cluster.wait_until(
            lambda: all(
                cluster.app(pid).log_length >= 1 for pid in pids
            ),
            timeout=20.0, what="the next request at all three nodes",
        )
        assert cluster.errors() == {}
        cluster.check()


# -- 11. a run too large for one frame loses only what is too large alone -----


def test_an_oversize_run_goes_out_as_its_single_ordered(monkeypatch):
    """``encode_frame`` refuses a frame past ``MAX_FRAME``.  A run that
    does not fit is sent as its ``Ordered`` messages, so only an entry
    too large on its own is lost (one slot, as before runs); the
    sequencer's own copy is local and keeps the whole run."""
    monkeypatch.setattr(repro.runtime.codec, "MAX_FRAME", 600)
    vid = ViewId(1, "a")
    run_ = OrderedRun(vid, 5, (
        ("small", "b"), ("x" * 700, "c"), ("also small", "a"),
    ))

    async def scenario():
        view = View(vid, frozenset(["a", "b", "c"]))
        node = RuntimeNode("a", {}, initial_view=view)
        await node.start()
        node.book.update({"b": ("127.0.0.1", 1), "c": ("127.0.0.1", 1)})
        wire, local = [], []
        node._send_encoded = lambda dst, msg, frame: wire.append((dst, msg))
        node._local_deliver = local.append
        node.broadcast("a", ["a", "b", "c"], run_)
        sent = list(wire)  # before the loop turns: no heartbeat yet
        await asyncio.sleep(0)
        await node.stop()
        return sent, local, list(node.errors)

    wire, local, errors = run(scenario())
    first, too_big, last = run_.split()
    assert local == [run_]
    assert wire == [("b", first), ("c", first), ("b", last), ("c", last)]
    assert len(errors) == 1 and isinstance(errors[0], CodecError)


def test_a_live_view_delivers_runs_past_a_small_frame_limit(monkeypatch):
    """End to end: with ``MAX_FRAME`` below what a run of five puts
    takes, the sequencer's burst still reaches every member."""
    pids = ["n1", "n2", "n3"]
    cluster = RuntimeCluster(
        pids, app_factory=lambda node: KvReplica(node.to),
        hb_interval=0.05, hb_timeout=0.25,
    )
    with cluster:
        cluster.wait_formation(timeout=30.0)
        monkeypatch.setattr(repro.runtime.codec, "MAX_FRAME", 600)

        def burst(app):
            for i in range(5):
                app.put("k{0}".format(i), i)

        cluster.call_app("n1", burst)  # n1 = min(view): the sequencer
        cluster.wait_until(
            lambda: all(cluster.app(pid).log_length >= 5 for pid in pids),
            timeout=20.0, what="the burst at all three nodes",
        )
        assert cluster.errors() == {}
        cluster.check()
