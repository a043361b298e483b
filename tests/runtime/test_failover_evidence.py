"""Failover on evidence: a refused redial suspects a crashed peer, and
the minimum of a split component re-runs its round on the view ids the
heartbeats carry.

The transport half runs on real loopback sockets (a closed port refuses
within a millisecond); the estimator and the merge trigger run on a
stub clock, with no sockets at all.
"""

import asyncio
import builtins
import socket
import sys

import pytest

from repro.core.viewids import ViewId
from repro.core.views import View
from repro.runtime.codec import Heartbeat, Hello
from repro.runtime.faultnet import FaultNet
from repro.runtime.heartbeat import ConnectivityEstimator
from repro.runtime.node import RuntimeNode
from repro.runtime.transport import Listener, PeerLink

WAIT = 5.0
PIDS = ["p1", "p2", "p3"]
G0 = View(ViewId(0, ""), frozenset(PIDS))
OTHER = ViewId(1, "p2")


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, 30.0))


async def poll_until(predicate, timeout=WAIT, interval=0.002):
    async def loop():
        while not predicate():
            await asyncio.sleep(interval)

    await asyncio.wait_for(loop(), timeout)


def free_port():
    """A loopback port nothing listens on (bound, then released)."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


# -- PeerLink.on_refused -------------------------------------------------------


def test_on_refused_fires_once_per_lost_connection():
    """The peer's listener dies with its connections (a crash): the
    redial is refused and ``on_refused`` fires once, not on each later
    refusal of the same outage.  A second connection, lost the same
    way, fires it once more."""

    async def scenario():
        book, refused = {}, []
        first = await Listener(lambda src, msg: None).start()
        book["b"] = ("127.0.0.1", first.port)
        link = PeerLink(
            "a", "b", resolve=lambda: book["b"], retry_min=0.005,
            retry_max=0.02, on_refused=refused.append,
        ).start()
        await poll_until(lambda: link.connects == 1)
        await first.close()
        await poll_until(lambda: refused)
        await asyncio.sleep(0.2)  # about ten more refused redials
        assert refused == ["b"]

        second = await Listener(lambda src, msg: None).start()
        book["b"] = ("127.0.0.1", second.port)
        await poll_until(lambda: link.connects == 2)
        assert refused == ["b"]
        await second.close()
        await poll_until(lambda: len(refused) == 2)
        await asyncio.sleep(0.1)
        assert refused == ["b", "b"]
        await link.close()

    run(scenario())


def test_on_refused_is_silent_at_boot():
    """A peer that is not up yet refuses every dial, but no connection
    was lost: nothing to suspect."""

    async def scenario():
        refused = []
        port = free_port()
        link = PeerLink(
            "a", "b", resolve=lambda: ("127.0.0.1", port),
            retry_min=0.005, retry_max=0.02, on_refused=refused.append,
        ).start()
        await asyncio.sleep(0.2)
        assert link.connects == 0 and refused == []
        await link.close()

    run(scenario())


def test_on_refused_is_silent_on_a_key_error_from_resolve():
    """A lost connection whose redial cannot even resolve the peer (it
    left the book) is no evidence of a crash."""

    async def scenario():
        book, refused = {}, []
        listener = await Listener(lambda src, msg: None).start()
        book["b"] = ("127.0.0.1", listener.port)
        link = PeerLink(
            "a", "b", resolve=lambda: book["b"], retry_min=0.005,
            retry_max=0.02, on_refused=refused.append,
        ).start()
        await poll_until(lambda: link.connects == 1)
        del book["b"]
        await listener.close()
        await asyncio.sleep(0.2)
        assert refused == []
        await link.close()

    run(scenario())


@pytest.mark.skipif(
    sys.version_info < (3, 11), reason="ExceptionGroup is Python 3.11+"
)
@pytest.mark.parametrize("refused_at_every_address", [True, False])
def test_a_host_name_is_refused_only_at_every_address(
        refused_at_every_address):
    """A name with two addresses (``localhost`` as ``::1`` and
    ``127.0.0.1``) fails a dial with one error per address, grouped
    (Python 3.12 asyncio, ``all_errors=True``).  Only a group of
    refusals is a refusal."""

    async def scenario():
        book, refused = {}, []
        listener = await Listener(lambda src, msg: None).start()
        book["b"] = ("127.0.0.1", listener.port)
        link = PeerLink(
            "a", "b", resolve=lambda: book["b"], retry_min=0.005,
            retry_max=0.02, on_refused=refused.append,
        ).start()
        await poll_until(lambda: link.connects == 1)
        second = (
            ConnectionRefusedError(111, "refused at 127.0.0.1")
            if refused_at_every_address
            else TimeoutError("timed out at 127.0.0.1")
        )

        async def dial_two_addresses(*args, **kwargs):
            raise builtins.ExceptionGroup("create_connection failed", [
                ConnectionRefusedError(111, "refused at ::1"), second,
            ])

        asyncio.get_running_loop().create_connection = dial_two_addresses
        await listener.close()
        await asyncio.sleep(0.2)
        assert refused == (["b"] if refused_at_every_address else [])
        await link.close()

    run(scenario())


class StubTransport:
    def __init__(self):
        self.closes = 0

    def write(self, data):
        pass

    def close(self):
        self.closes += 1


def test_a_connection_lost_before_the_dial_resumes_is_not_held():
    """The connection is made and lost before ``create_connection``
    returns to ``_dial``.  ``connection_made`` / ``connection_lost``
    are the only writers of ``_transport``, so the link holds nothing
    afterwards, and ``close()`` touches no dead transport."""

    async def scenario():
        made = StubTransport()

        async def made_and_lost(factory, *args, **kwargs):
            protocol = factory()
            protocol.connection_made(made)
            protocol.connection_lost(None)
            return made, protocol

        asyncio.get_running_loop().create_connection = made_and_lost
        link = PeerLink(
            "a", "b", resolve=lambda: ("127.0.0.1", 1), retry_min=60.0,
            retry_max=60.0,
        ).start()
        await poll_until(lambda: link.connects == 1)
        await asyncio.sleep(0)
        held = link._transport
        await link.close()
        return held, made.closes

    assert run(scenario()) == (None, 0)


# -- ConnectivityEstimator.suspect ---------------------------------------------


class StubClock:
    def __init__(self):
        self.now = 0.0


def make_estimator(clock, reports, **kwargs):
    kwargs.setdefault("interval", 1.0)
    return ConnectivityEstimator(
        "p1", peers=lambda: ["p2", "p3"], clock=clock,
        send_heartbeats=lambda: None, notify=reports.append, **kwargs
    )


def test_suspect_of_a_reported_peer_reports_at_once():
    clock, reports = StubClock(), []
    est = make_estimator(clock, reports, timeout=4.0, expected=PIDS)
    est.heard("p2")
    est.heard("p3")
    assert reports == [frozenset(PIDS)]
    clock.now = 0.1
    est.suspect("p2")  # no poll
    assert reports[-1] == frozenset({"p1", "p3"})
    assert len(reports) == 2


def test_suspect_of_a_never_heard_or_unreported_peer_reports_nothing():
    clock, reports = StubClock(), []
    est = make_estimator(clock, reports, timeout=4.0, expected=PIDS)
    est.heard("p2")
    est.suspect("p3")  # never heard, nothing reported yet
    est.suspect("p2")  # heard, but nothing reported yet
    assert reports == []
    # The evidence is gone: the completing frame has to come again.
    est.heard("p3")
    assert reports == []
    est.heard("p2")
    assert reports == [frozenset(PIDS)]
    est.suspect("p2")
    assert reports[-1] == frozenset({"p1", "p3"})
    est.suspect("p2")  # no longer reported
    assert len(reports) == 2


def test_a_frame_after_suspect_reports_the_peer_back_at_once():
    clock, reports = StubClock(), []
    est = make_estimator(clock, reports, timeout=4.0, expected=PIDS)
    est.heard("p2")
    est.heard("p3")
    est.suspect("p2")
    clock.now = 0.2
    est.heard("p2")  # a restarted p2's Hello
    assert reports == [
        frozenset(PIDS), frozenset({"p1", "p3"}), frozenset(PIDS),
    ]


# -- The refused redial, end to end ----------------------------------------


def two_nodes(hb_timeout, faultnet=None):
    book = {}
    view = View(ViewId(0, ""), frozenset({"p1", "p2"}))
    return [
        RuntimeNode(
            pid, book, initial_view=view, hb_interval=0.05,
            hb_timeout=hb_timeout, faultnet=faultnet,
        )
        for pid in ("p1", "p2")
    ]


def test_a_crashed_peer_is_suspected_long_before_the_timeout():
    async def scenario():
        n1, n2 = two_nodes(hb_timeout=2.0)
        await n1.start()
        await n2.start()
        both = frozenset({"p1", "p2"})
        await poll_until(lambda: n1._estimator.reported == both)
        await asyncio.sleep(0.1)
        crashed = n1.clock.now
        await n2.stop()
        await poll_until(lambda: n1._estimator.reported == frozenset({"p1"}))
        detected = n1.clock.now - crashed
        await n1.stop()
        assert detected < 0.2, detected

    run(scenario())


def test_a_faultnet_partition_is_suspected_only_after_the_timeout():
    """A partition vetoes delivery and keeps the sockets open: nothing
    is refused, and expiry on the timeout is what detects it."""

    async def scenario():
        faultnet = FaultNet()
        n1, n2 = two_nodes(hb_timeout=0.5, faultnet=faultnet)
        refused = []
        n1._on_refused = refused.append
        await n1.start()
        await n2.start()
        both = frozenset({"p1", "p2"})
        await poll_until(lambda: n1._estimator.reported == both)
        await asyncio.sleep(0.1)
        cut = n1.clock.now
        faultnet.partition([["p1"], ["p2"]])
        await poll_until(lambda: n1._estimator.reported == frozenset({"p1"}))
        detected = n1.clock.now - cut
        await n2.stop()
        await n1.stop()
        # Last heard at most one interval before the cut.
        assert detected >= 0.5 - 0.05, detected
        assert refused == []

    run(scenario())


# -- The merge trigger (stub clock, no sockets) --------------------------------


class Tap:
    def __init__(self):
        self.events = []

    def record(self, now, pid, kind, *data):
        self.events.append((kind,) + data)


def stub_node(pid, timeout=1.0):
    """A node that is never started: a stub clock, an estimator on it,
    and a stack whose ``on_connectivity`` only counts."""
    clock = StubClock()
    book = {p: ("127.0.0.1", 0) for p in PIDS}
    node = RuntimeNode(pid, book, initial_view=G0, wiretap=Tap())
    node.clock = clock
    node._estimator = ConnectivityEstimator(
        pid, peers=node._peer_ids, clock=clock,
        send_heartbeats=lambda: None, notify=node._on_component,
        interval=timeout / 4, timeout=timeout, expected=G0.set,
    )
    rounds = []
    node.stack.on_connectivity = rounds.append
    for peer in PIDS:
        if peer != pid:
            node._on_frame(peer, Hello(peer))
    assert rounds == [G0.set]
    return node, clock, rounds


def beat(node, clock, src, view, at):
    clock.now = at
    node._on_frame(src, Heartbeat(view))


def test_the_minimum_reissues_its_component_after_a_timeout_of_split_views():
    node, clock, rounds = stub_node("p1")
    for at in (0.1, 0.5, 1.0, 1.1):
        beat(node, clock, "p2", OTHER, at)
        beat(node, clock, "p3", G0.id, at)  # p3 agrees with p1
    assert rounds == [G0.set]  # 1.0 s of mismatch is not "longer"
    beat(node, clock, "p2", OTHER, 1.15)
    assert rounds == [G0.set, G0.set]
    # Through _on_component: the wiretap saw a second ``conn``.
    conns = [e for e in node._wiretap.events if e[0] == "conn"]
    assert conns == [("conn", tuple(PIDS))] * 2
    # The re-issued round gets a full timeout of its own.
    beat(node, clock, "p2", OTHER, 1.2)
    beat(node, clock, "p2", OTHER, 2.15)
    assert len(rounds) == 2
    beat(node, clock, "p2", OTHER, 2.25)
    assert len(rounds) == 3


def test_a_mismatch_shorter_than_the_timeout_triggers_nothing():
    """A round in flight: p2 names the next view a little before p1
    installs it, and agreement resets the clock."""
    node, clock, rounds = stub_node("p1")
    at = 0.0
    for _ in range(5):
        beat(node, clock, "p2", OTHER, at + 0.1)
        beat(node, clock, "p2", OTHER, at + 0.9)
        beat(node, clock, "p2", G0.id, at + 1.0)
        at += 1.0
    assert rounds == [G0.set]


def test_a_non_minimum_never_reissues():
    node, clock, rounds = stub_node("p2")
    for step in range(1, 40):
        beat(node, clock, "p3", OTHER, step * 0.25)
        beat(node, clock, "p1", ViewId(7, "p1"), step * 0.25)
    assert rounds == [G0.set]


def test_a_peer_outside_the_component_triggers_nothing():
    node, clock, rounds = stub_node("p1")
    node._estimator.suspect("p2")
    assert rounds[-1] == frozenset({"p1", "p3"})
    for at in (0.1, 5.0):  # compared directly: a frame would report p2
        clock.now = at
        node._check_view("p2", OTHER)
    assert len(rounds) == 2


def test_a_joiner_with_no_view_is_never_a_split():
    """A fresh incarnation names no view; its admission is the round
    its ``Hello`` starts, not this trigger's."""
    node, clock, rounds = stub_node("p1")
    for step in range(1, 40):
        beat(node, clock, "p2", None, step * 0.25)
    assert rounds == [G0.set]

