"""RuntimeNode plumbing and the heartbeat connectivity estimator."""

import asyncio

from repro.core.viewids import ViewId
from repro.core.views import View
from repro.dvs.vs_to_dvs import AckMsg
from repro.gcs.messages import Ack, Data, SafeNote
from repro.runtime.codec import Heartbeat, encode_frame
from repro.runtime.heartbeat import ConnectivityEstimator
from repro.runtime.node import MonotonicClock, RuntimeNode

WAIT = 10.0


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, 30.0))


async def poll_until(predicate, timeout=WAIT, interval=0.01):
    async def loop():
        while not predicate():
            await asyncio.sleep(interval)

    await asyncio.wait_for(loop(), timeout)


def make_view(pids):
    return View(ViewId(0, ""), frozenset(pids))


# -- Estimator (pure unit: stub clock, no sockets) ----------------------------


class StubClock:
    def __init__(self):
        self.now = 0.0


def make_estimator(clock, reports, beacons, **kwargs):
    kwargs.setdefault("interval", 1.0)
    return ConnectivityEstimator(
        "p1",
        peers=lambda: ["p2", "p3"],
        clock=clock,
        send_heartbeats=lambda: beacons.append(clock.now),
        notify=reports.append,
        **kwargs,
    )


def test_estimator_reports_heard_peers_within_timeout():
    clock, reports, beacons = StubClock(), [], []
    est = make_estimator(clock, reports, beacons, timeout=4.0, grace=0.0)
    est.heard("p2")
    est.poll()
    assert reports == [frozenset({"p1", "p2"})]
    clock.now = 3.0
    est.heard("p3")
    est.poll()
    assert reports[-1] == frozenset({"p1", "p2", "p3"})
    # p2 last heard at 0.0 expires once the horizon passes it.
    clock.now = 5.0
    est.poll()
    assert reports[-1] == frozenset({"p1", "p3"})
    assert len(beacons) == 3  # one beacon per poll


def test_estimator_reports_only_changes():
    clock, reports, beacons = StubClock(), [], []
    est = make_estimator(clock, reports, beacons, timeout=4.0, grace=0.0)
    est.heard("p2")
    for _ in range(5):
        est.poll()
    assert len(reports) == 1


def test_estimator_grace_defers_first_report():
    clock, reports, beacons = StubClock(), [], []
    est = make_estimator(clock, reports, beacons, timeout=4.0, grace=2.0)
    est.poll()
    assert reports == []  # would have been a lonely singleton
    clock.now = 1.0
    est.heard("p2")
    est.poll()
    assert reports == []
    clock.now = 2.5
    est.poll()
    assert reports == [frozenset({"p1", "p2"})]


def test_estimator_reports_once_every_expected_peer_is_heard():
    """The grace is a cap: with the whole initial view heard, the first
    report goes out at that poll, long before the grace runs out."""
    clock, reports, beacons = StubClock(), [], []
    est = make_estimator(
        clock, reports, beacons, timeout=4.0, grace=10.0,
        expected={"p1", "p2", "p3"},
    )
    est.heard("p2")
    est.poll()
    assert reports == []  # p3 still unheard
    clock.now = 1.0
    est.heard("p3")
    est.poll()
    assert reports == [frozenset({"p1", "p2", "p3"})]
    # Once reported, changes go out as they happen, grace or not.
    clock.now = 4.5
    est.heard("p3")
    est.poll()
    assert reports[-1] == frozenset({"p1", "p3"})


def test_estimator_with_an_expected_peer_unheard_waits_out_the_grace():
    clock, reports, beacons = StubClock(), [], []
    est = make_estimator(
        clock, reports, beacons, timeout=4.0, grace=2.0,
        expected={"p1", "p2", "p3"},
    )
    est.heard("p2")
    est.poll()
    clock.now = 1.5
    est.heard("p2")
    est.poll()
    assert reports == []
    clock.now = 2.0
    est.poll()
    assert reports == [frozenset({"p1", "p2"})]


def test_estimator_expecting_only_itself_reports_at_the_first_poll():
    clock, reports, beacons = StubClock(), [], []
    est = make_estimator(
        clock, reports, beacons, timeout=4.0, grace=2.0, expected={"p1"},
    )
    est.poll()
    assert reports == [frozenset({"p1"})]


def test_estimator_first_report_fires_inside_the_completing_heard():
    """Reports go out on evidence: the frame that completes the initial
    view is reported from ``heard`` itself, with no poll in between."""
    clock, reports, beacons = StubClock(), [], []
    est = make_estimator(
        clock, reports, beacons, timeout=4.0, grace=10.0,
        expected={"p1", "p2", "p3"},
    )
    est.heard("p2")
    assert reports == []
    clock.now = 0.3
    est.heard("p3")
    assert reports == [frozenset({"p1", "p2", "p3"})]
    assert beacons == []  # no poll ran


def test_estimator_completing_heard_needs_every_member_still_alive():
    clock, reports, beacons = StubClock(), [], []
    est = make_estimator(
        clock, reports, beacons, timeout=4.0, grace=10.0,
        expected={"p1", "p2", "p3"},
    )
    est.heard("p2")
    clock.now = 5.0  # p2's evidence has expired
    est.heard("p3")
    assert reports == []
    est.heard("p2")
    assert reports == [frozenset({"p1", "p2", "p3"})]


def test_estimator_reports_a_newly_heard_peer_at_once():
    """After the first report, a frame from a peer outside the reported
    component (a restarted peer's ``Hello``, a heal) is news now, not at
    the next tick."""
    clock, reports, beacons = StubClock(), [], []
    est = make_estimator(
        clock, reports, beacons, timeout=4.0, grace=1.0,
        expected={"p1", "p2", "p3"},
    )
    est.heard("p2")
    est.poll()
    clock.now = 1.0
    est.poll()
    assert reports == [frozenset({"p1", "p2"})]  # the grace ran out
    clock.now = 1.5
    est.heard("p3")
    assert reports[-1] == frozenset({"p1", "p2", "p3"})
    assert len(beacons) == 2


def test_estimator_frames_from_reported_peers_cost_no_component():
    clock, reports, beacons = StubClock(), [], []
    est = make_estimator(
        clock, reports, beacons, timeout=4.0, grace=10.0,
        expected={"p1", "p2", "p3"},
    )
    est.heard("p2")
    est.heard("p3")
    assert len(reports) == 1
    computed = []
    component = est.component

    def counted():
        computed.append(clock.now)
        return component()

    est.component = counted
    for index in range(1000):
        clock.now = index * 0.001
        est.heard(("p2", "p3")[index % 2])
    assert len(reports) == 1
    assert computed == []


def test_estimator_frames_alone_never_cut_the_grace_short():
    """With an expected member unheard, no number of frames from the
    others reports early: only the tick sees the grace run out."""
    clock, reports, beacons = StubClock(), [], []
    est = make_estimator(
        clock, reports, beacons, timeout=4.0, grace=2.0,
        expected={"p1", "p2", "p3"},
    )
    est.poll()
    for index in range(100):
        clock.now = index * 0.03
        est.heard("p2")
    assert clock.now > est.grace
    assert reports == []
    est.poll()
    assert reports == [frozenset({"p1", "p2"})]


def test_estimator_defaults_scale_with_interval():
    est = ConnectivityEstimator(
        "p1", peers=lambda: [], clock=StubClock(),
        send_heartbeats=lambda: None, notify=lambda c: None,
        interval=0.2,
    )
    assert est.timeout == 0.8
    assert est.grace == est.timeout


# -- Node plumbing ------------------------------------------------------------


def test_clock_is_monotonic_and_timers_fire_against_it():
    async def scenario():
        clock = MonotonicClock(asyncio.get_event_loop())
        t0 = clock.now
        await asyncio.sleep(0.02)
        assert clock.now > t0

    run(scenario())


def test_node_publishes_address_and_counts_unroutable():
    async def scenario():
        book = {}
        node = RuntimeNode("p1", book, initial_view=make_view(["p1"]))
        await node.start()
        assert book["p1"] == ("127.0.0.1", node.port)
        node.send("p1", "ghost", Data(ViewId(0, ""), "x", "p1", 1))
        assert node.dropped_unroutable == 1
        assert node.stats()["dropped_unroutable"] == 1
        await node.stop()

    run(scenario())


def test_stats_count_connections_the_listener_rejected():
    """``rejected`` counts the refused connections and ``last_refusal``
    says why the last one was refused."""
    async def scenario():
        node = RuntimeNode("p1", {}, initial_view=make_view(["p1"]))
        # Readable before start().
        assert node.stats()["rejected"] == 0
        assert node.stats()["last_refusal"] is None
        await node.start()
        for count, frame, why in (
            (1, b"\x00\x00\x00\x04junk",  # stamp b"j": 106
             "unsupported wire version 106 (speaking 6)"),
            (2, encode_frame(("p2", Heartbeat())),
             "no Hello naming its sender first"),
        ):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", node.port
            )
            writer.write(frame)
            await writer.drain()
            await poll_until(lambda: node.stats()["rejected"] == count)
            assert node.stats()["last_refusal"] == why
            assert await asyncio.wait_for(reader.read(), WAIT) == b""
            writer.close()
        await node.stop()

    run(scenario())


def test_the_node_is_its_stacks_net():
    node = RuntimeNode("p1", {}, initial_view=make_view(["p1"]))
    assert node.stack.net is node


def test_a_later_peers_hello_creates_the_link_back():
    """The first node to boot has no link to a peer that starts after
    it; the peer's ``Hello`` creates one, instead of the next beacon
    (0.5 s away here).  p3 never starts, so neither node reports and
    the stack sends nothing that would create the link itself."""
    async def scenario():
        book = {}
        view = make_view(["p1", "p2", "p3"])
        n1 = RuntimeNode("p1", book, initial_view=view, hb_interval=0.5)
        await n1.start()
        await asyncio.sleep(0.05)  # n1's first beacon has gone out
        n2 = RuntimeNode("p2", book, initial_view=view, hb_interval=0.5)
        await n2.start()
        assert "p2" not in n1._links
        started = n1.clock.now
        await poll_until(lambda: "p2" in n1._links, interval=0.002)
        linked = n1.clock.now - started
        await n2.stop()
        await n1.stop()
        assert linked < 0.1, linked

    run(scenario())


def test_a_hello_naming_us_or_a_stranger_creates_no_link():
    async def scenario():
        node = RuntimeNode("p1", {}, initial_view=make_view(["p1", "p2"]))
        await node.start()
        node._on_hello("p1")
        node._on_hello("ghost")
        assert node._links == {}
        await node.stop()

    run(scenario())


def test_self_send_is_asynchronous_not_reentrant():
    async def scenario():
        # p2 never starts, so the estimator waits out its grace and the
        # stack sends nothing of its own while the test looks.
        node = RuntimeNode("p1", {}, initial_view=make_view(["p1", "p2"]))
        await node.start()
        seen = []
        node.stack.on_message = lambda src, msg: seen.append((src, msg))
        during = []
        node.stack.send("p1", "hello-self")  # Node.send -> net.send
        during.append(list(seen))  # not yet delivered: queued on the loop
        await poll_until(lambda: seen)
        assert during == [[]]
        assert seen == [("p1", "hello-self")]
        await node.stop()

    run(scenario())


def test_timer_fires_once_with_its_tag():
    async def scenario():
        # As above: an unheard p2 keeps the stack's own timers quiet.
        node = RuntimeNode("p1", {}, initial_view=make_view(["p1", "p2"]))
        await node.start()
        fired = []
        node.stack.on_timer = fired.append
        node.stack.set_timer(0.01, "tick")
        await poll_until(lambda: fired)
        await asyncio.sleep(0.05)
        assert fired == ["tick"]
        await node.stop()

    run(scenario())


def test_layer_exception_is_recorded_not_raised():
    async def scenario():
        book = {}
        view = make_view(["p1", "p2"])
        n1 = RuntimeNode("p1", book, initial_view=view)
        n2 = RuntimeNode("p2", book, initial_view=view)
        await n1.start()
        await n2.start()

        def explode(src, msg):
            raise RuntimeError("layer bug")

        n2.stack.on_message = explode
        n1.send("p1", "p2", Data(view.id, "payload", "p1", 1))
        await poll_until(
            lambda: any(isinstance(e, RuntimeError) for e in n2.errors)
        )
        # The transport survived: heartbeats keep flowing.
        assert n2._estimator is not None
        await n1.stop()
        await n2.stop()

    run(scenario())


def test_stray_stability_frames_are_dropped_without_error():
    """No code path sends ``Ack`` or ``SafeNote``; one from an old peer
    still decodes, reaches the stack, and is dropped: nothing buffered,
    no error recorded."""
    async def scenario():
        book = {}
        view = make_view(["p1", "p2"])
        n1 = RuntimeNode("p1", book, initial_view=view)
        n2 = RuntimeNode("p2", book, initial_view=view)
        await n1.start()
        await n2.start()
        seen = []
        on_message = n2.stack.on_message

        def spy(src, msg):
            on_message(src, msg)
            seen.append(type(msg))

        n2.stack.on_message = spy
        n1.send("p1", "p2", Ack(view.id, 1))
        n1.send("p1", "p2", SafeNote(view.id, 1))
        await poll_until(lambda: SafeNote in seen)
        assert Ack in seen
        assert not n2.errors
        assert n2.stack.ordering.buffer == {}
        await n1.stop()
        await n2.stop()

    run(scenario())


def test_two_nodes_estimate_each_other_connected():
    async def scenario():
        book = {}
        view = make_view(["p1", "p2"])
        n1 = RuntimeNode(
            "p1", book, initial_view=view, hb_interval=0.02
        )
        n2 = RuntimeNode(
            "p2", book, initial_view=view, hb_interval=0.02
        )
        await n1.start()
        await n2.start()
        await poll_until(
            lambda: n1._estimator.component() == frozenset({"p1", "p2"})
            and n2._estimator.component() == frozenset({"p1", "p2"})
        )
        await n2.stop()
        await poll_until(
            lambda: n1._estimator.component() == frozenset({"p1"})
        )
        await n1.stop()

    run(scenario())


def test_a_message_vs_has_no_handler_for_lands_in_errors():
    """VS dispatches on one class-level table keyed by message type: a
    type with no row raises, and the node keeps the error rather than
    losing its loop."""

    async def scenario():
        node = RuntimeNode("a", {}, initial_view=make_view(["a", "b"]))
        await node.start()
        node._dispatch("b", AckMsg(1))
        node._dispatch("b", Data(ViewId(0, ""), "x", "b", 1))
        await node.stop()
        return list(node.errors)

    errors = run(scenario())
    assert len(errors) == 1 and isinstance(errors[0], KeyError), errors
