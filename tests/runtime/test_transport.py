"""Transport behaviour on real loopback sockets.

Each test runs its own short-lived event loop via ``asyncio.run``; every
wait is bounded by ``asyncio.wait_for`` so a regression hangs for
seconds, not forever.
"""

import asyncio
import tracemalloc

import pytest

from repro.runtime.codec import Heartbeat, Hello, encode_frame
from repro.runtime.transport import _READ_BUFFER, Listener, PeerLink, _Inbound

WAIT = 5.0


async def poll_until(predicate, timeout=WAIT, interval=0.01):
    async def loop():
        while not predicate():
            await asyncio.sleep(interval)

    await asyncio.wait_for(loop(), timeout)


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, 30.0))


def send(link, msg):
    """What a node does to put one message on ``link``."""
    link.send_frame(encode_frame((link.local_pid, msg)))


def collector():
    frames = []

    def on_frame(src, msg):
        frames.append((src, msg))

    return frames, on_frame


def recorded_reads(monkeypatch):
    """The size of every read any listener hands its decoder, in order."""
    reads = []
    buffer_updated = _Inbound.buffer_updated

    def recording(self, nbytes):
        reads.append(nbytes)
        return buffer_updated(self, nbytes)

    monkeypatch.setattr(_Inbound, "buffer_updated", recording)
    return reads


def test_link_delivers_in_order_after_handshake():
    async def scenario():
        frames, on_frame = collector()
        listener = await Listener(on_frame).start()
        link = PeerLink(
            "a", "b", resolve=lambda: ("127.0.0.1", listener.port)
        ).start()
        for i in range(20):
            send(link, Heartbeat() if i % 5 == 0 else ("m", i))
        await poll_until(lambda: len(frames) >= 21)  # +1 for the Hello
        assert frames[0] == ("a", Hello("a"))
        payloads = [m for _, m in frames[1:] if not isinstance(m, Heartbeat)]
        assert payloads == [("m", i) for i in range(20) if i % 5 != 0]
        assert all(src == "a" for src, _ in frames)
        await link.close()
        await listener.close()

    run(scenario())


def test_link_queues_while_peer_down_and_flushes_on_connect():
    async def scenario():
        frames, on_frame = collector()
        book = {}
        link = PeerLink(
            "a", "b", resolve=lambda: book["b"], retry_min=0.01
        ).start()
        for i in range(5):
            send(link, ("early", i))
        await asyncio.sleep(0.05)  # retrying against a missing entry
        listener = await Listener(on_frame).start()
        book["b"] = ("127.0.0.1", listener.port)
        await poll_until(lambda: len(frames) >= 6)
        assert [m for _, m in frames[1:]] == [("early", i) for i in range(5)]
        await link.close()
        await listener.close()

    run(scenario())


def test_link_redials_new_port_after_peer_restart():
    async def scenario():
        frames, on_frame = collector()
        book = {}
        first = await Listener(on_frame).start()
        book["b"] = ("127.0.0.1", first.port)
        link = PeerLink(
            "a", "b", resolve=lambda: book["b"], retry_min=0.01
        ).start()
        send(link, "one")
        await poll_until(lambda: ("a", "one") in frames)
        # Peer "restarts": the old listener dies (dropping established
        # connections), a new one binds elsewhere, the book is updated.
        await first.close()
        second = await Listener(on_frame).start()
        assert second.port != first.port
        book["b"] = ("127.0.0.1", second.port)
        sent = ["two-{0}".format(i) for i in range(50)]
        for msg in sent:
            send(link, msg)
            await asyncio.sleep(0.005)
        await poll_until(
            lambda: any(m == sent[-1] for _, m in frames)
        )
        assert link.connects >= 2
        # Fair-lossy: in-flight frames at the switchover may be lost,
        # but delivery resumes and stays in order.
        delivered = [m for _, m in frames if m in sent]
        assert delivered == sorted(delivered, key=sent.index)
        await link.close()
        await second.close()

    run(scenario())


def test_full_queue_drops_oldest():
    async def scenario():
        link = PeerLink(
            "a", "b", resolve=lambda: (_ for _ in ()).throw(KeyError("b")),
            queue_limit=3, retry_min=0.01,
        ).start()
        for i in range(10):
            send(link, ("m", i))
        assert link.dropped == 7
        assert link.queue_drops == 7
        assert link.queue_depth() == 3
        await link.close()

    run(scenario())


@pytest.mark.parametrize(
    "first_frames",
    [
        [b"\x00\x00\x00\x04junk"],  # undecodable body
        [encode_frame(("a", Heartbeat()))],  # skipped the handshake
        [encode_frame(("a", Hello("someone-else")))],  # pid mismatch
        [encode_frame("not-an-envelope")],  # not a (src, msg) tuple
        [
            encode_frame(("a", Hello("a"))),
            encode_frame(("b", Heartbeat())),  # sender switched mid-stream
        ],
    ],
    ids=["garbage", "no-hello", "pid-mismatch", "bad-envelope", "switch"],
)
def test_protocol_violations_drop_connection_only(first_frames):
    async def scenario():
        frames, on_frame = collector()
        listener = await Listener(on_frame).start()
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", listener.port
        )
        # One write, so the violation and a well-formed frame behind it
        # arrive in the same read.
        writer.write(b"".join(first_frames) + encode_frame(("a", "after")))
        await writer.drain()
        await poll_until(lambda: listener.rejected == 1)
        # The violator is disconnected...
        assert await asyncio.wait_for(reader.read(), WAIT) == b""
        writer.close()
        # ...and nothing behind the violation was dispatched.
        assert ("a", "after") not in frames
        assert listener.rejected == 1
        # ...but the listener still serves well-behaved peers.
        link = PeerLink(
            "c", "b", resolve=lambda: ("127.0.0.1", listener.port)
        ).start()
        send(link, "fine")
        await poll_until(lambda: ("c", "fine") in frames)
        await link.close()
        await listener.close()

    run(scenario())


def test_callback_exception_reported_and_contained(caplog):
    async def scenario():
        errors = []
        frames = []

        def explode(src, msg):
            frames.append((src, msg))
            if msg == "boom":
                raise RuntimeError("handler bug")

        listener = await Listener(explode, on_error=errors.append).start()

        def resolve():
            return "127.0.0.1", listener.port

        bad = PeerLink("a", "b", resolve=resolve, retry_min=0.01).start()
        good = PeerLink("c", "b", resolve=resolve).start()
        send(good, "before")
        await poll_until(lambda: ("c", "before") in frames)
        send(bad, "boom")
        send(bad, "same-read")
        await poll_until(lambda: len(errors) >= 1)
        assert isinstance(errors[0], RuntimeError)
        # That one connection is dropped (its link redials)...
        await poll_until(lambda: bad.connects >= 2)
        assert ("a", "same-read") not in frames
        # ...and only that one: the other peer never reconnects.
        send(good, "after")
        await poll_until(lambda: ("c", "after") in frames)
        assert good.connects == 1 and len(errors) == 1
        await bad.close()
        await good.close()
        await listener.close()

    run(scenario())
    # Contained in the protocol: asyncio never saw it escape.
    assert "protocol.buffer_updated() call failed" not in caplog.text


def test_listener_close_drops_established_connections():
    async def scenario():
        frames, on_frame = collector()
        listener = await Listener(on_frame).start()
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", listener.port
        )
        writer.write(encode_frame(("a", Hello("a"))))
        await writer.drain()
        await poll_until(lambda: len(frames) == 1)
        await listener.close()
        # The dialer observes EOF -- this is what lets a PeerLink notice
        # a dead peer and redial instead of writing into a zombie socket.
        assert await asyncio.wait_for(reader.read(), WAIT) == b""
        writer.close()

    run(scenario())


def test_fifo_across_down_reconnect_and_pause():
    """A frame is written directly only when nothing is pending, so
    the receiver sees one increasing sequence whatever mix of queued
    and direct sends produced it."""

    async def scenario():
        frames, on_frame = collector()
        book = {}
        link = PeerLink(
            "a", "b", resolve=lambda: book["b"], retry_min=0.01
        ).start()
        counter = iter(range(10**6))

        def burst(count, pad=""):
            for _ in range(count):
                send(link, ("n", next(counter), pad))

        def numbers():
            return [m[1] for _, m in frames if isinstance(m, tuple)]

        burst(5)  # peer down: queued
        first = await Listener(on_frame).start()
        book["b"] = ("127.0.0.1", first.port)
        await poll_until(lambda: link.connects == 1)
        burst(5)  # up and idle: straight to the socket
        assert link.queue_depth() == 0
        link.pause_writing()  # what asyncio says when the socket is full
        burst(5)
        assert link.queue_depth() == 5
        link.resume_writing()
        assert link.queue_depth() == 0
        burst(5)
        # The same through asyncio itself: 4 MiB at once passes the
        # write buffer's high-water mark, the rest waits its turn.
        burst(64, pad="x" * (1 << 16))
        assert link.queue_depth() > 0
        burst(5)
        await poll_until(lambda: len(numbers()) == 89)
        assert numbers() == list(range(89))
        assert link.queue_depth() == 0 and link.dropped == 0

        # Across a reconnect frames may be lost, never reordered.
        await first.close()
        second = await Listener(on_frame).start()
        book["b"] = ("127.0.0.1", second.port)
        for _ in range(50):
            burst(1)
            await asyncio.sleep(0.005)
        last = next(counter) - 1
        await poll_until(lambda: numbers()[-1] == last)
        assert link.connects >= 2
        assert numbers() == sorted(set(numbers()))
        await link.close()
        await second.close()

    run(scenario())


def test_split_and_batched_frames_both_decode(monkeypatch):
    reads = recorded_reads(monkeypatch)

    async def scenario():
        frames, on_frame = collector()
        listener = await Listener(on_frame).start()
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", listener.port
        )
        hello = encode_frame(("a", Hello("a")))
        one, two, three = (
            encode_frame(("a", ("m", i, "y" * 100))) for i in range(3)
        )
        writer.write(hello + one[:40])  # a frame torn across two reads
        await writer.drain()
        await poll_until(lambda: len(frames) == 1)
        writer.write(one[40:] + two + three)  # ...and three in one
        await writer.drain()
        await poll_until(lambda: len(frames) == 4)
        assert [m[1] for _, m in frames[1:]] == [0, 1, 2]
        assert reads[0] == len(hello) + 40 and len(reads) < 4
        # ...and one three receive buffers long, over as many reads.
        before = len(reads)
        big = ("m", 3, "z" * (3 * _READ_BUFFER))
        writer.write(encode_frame(("a", big)))
        await writer.drain()
        await poll_until(lambda: len(frames) == 5)
        assert frames[4] == ("a", big) and len(reads) - before >= 3
        assert listener.bytes_in == sum(reads)
        writer.close()
        await listener.close()

    run(scenario())


def test_connections_sharing_the_read_buffer_decode_apart(monkeypatch):
    """Two connections' frames torn across reads and interleaved: A's
    first half, all of B's equally long frame (landing where A's half
    did), then A's rest.  Both decode intact and in order, so nothing
    holds a view of the shared buffer once a read is handled."""

    reads = recorded_reads(monkeypatch)

    async def scenario():
        frames, on_frame = collector()
        listener = await Listener(on_frame).start()
        writers = {}
        for pid in "ab":
            _, writers[pid] = await asyncio.open_connection(
                "127.0.0.1", listener.port
            )
            writers[pid].write(encode_frame((pid, Hello(pid))))
        await poll_until(lambda: len(frames) == 2)

        async def one_read(pid, chunk):
            count = len(reads)
            writers[pid].write(chunk)
            await poll_until(lambda: len(reads) > count)

        for i in range(5):
            a, b = (encode_frame((p, ("m", i, p * 64))) for p in "ab")
            await one_read("a", a[:len(a) // 2])
            await one_read("b", b)
            await one_read("a", a[len(a) // 2:])
        await poll_until(lambda: len(frames) == 12)
        for pid in "ab":
            assert [m for src, m in frames[2:] if src == pid] == [
                ("m", i, pid * 64) for i in range(5)
            ]
        for writer in writers.values():
            writer.close()
        await listener.close()

    run(scenario())


def test_a_read_allocates_no_receive_buffer():
    """asyncio's default read path allocates a fresh 256 KiB ``bytes``
    per ``recv``; a read into the listener's buffer allocates only what
    it decodes.  Two hundred small frames, one per read."""

    async def scenario():
        arrived = asyncio.Event()
        seen = []

        def on_frame(src, msg):
            seen.append(msg)
            arrived.set()

        listener = await Listener(on_frame).start()
        _, writer = await asyncio.open_connection("127.0.0.1", listener.port)
        writer.write(encode_frame(("a", Hello("a"))))
        await asyncio.wait_for(arrived.wait(), WAIT)
        del seen[:]
        tracemalloc.start()
        try:
            for i in range(200):
                arrived.clear()
                writer.write(encode_frame(("a", i)))
                await asyncio.wait_for(arrived.wait(), WAIT)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert seen == list(range(200))
        writer.close()
        await listener.close()
        return peak

    peak = run(scenario())
    assert peak < 64 * 1024, peak


# -- Dial back at the handshake ----------------------------------------------


def backing_off(link):
    return link._wake is not None and not link._wake.done()


def test_a_backing_off_link_dials_at_once_when_its_peer_dials_in():
    """"a"'s link to "b" sleeps out a 5-10 s backoff; "b" comes up and
    dials "a", and the handshake wakes the link (wired as the node wires
    it), which connects well inside the backoff it was sleeping."""

    async def scenario():
        book = {}
        link = PeerLink(
            "a", "b", resolve=lambda: book["b"], retry_min=5.0,
            retry_max=10.0,
        ).start()
        await poll_until(lambda: backing_off(link))
        backoff = link._backoff
        frames_b, on_frame_b = collector()
        listener_b = await Listener(on_frame_b).start()
        book["b"] = ("127.0.0.1", listener_b.port)
        listener_a = await Listener(
            lambda src, msg: None, on_hello=lambda src: link.dial_now()
        ).start()
        dialler = PeerLink(
            "b", "a", resolve=lambda: ("127.0.0.1", listener_a.port)
        ).start()
        await poll_until(lambda: ("a", Hello("a")) in frames_b, timeout=1.0)
        assert link.connects == 1
        assert link._backoff == backoff  # woken, not reset
        for closable in (dialler, link, listener_a, listener_b):
            await closable.close()

    run(scenario())


def test_a_second_hello_on_one_connection_does_not_dial_again():
    async def scenario():
        frames, on_frame = collector()
        hellos = []
        listener = await Listener(on_frame, on_hello=hellos.append).start()
        _, writer = await asyncio.open_connection("127.0.0.1", listener.port)
        hello = encode_frame(("b", Hello("b")))
        writer.write(hello + hello)
        await writer.drain()
        await poll_until(lambda: len(frames) == 2)
        assert hellos == ["b"]
        writer.close()
        await listener.close()

    run(scenario())


def test_a_connect_in_flight_is_not_restarted():
    """``dial_now`` during a pending connect changes nothing; once that
    connect fails and the link backs off, it wakes the link."""

    async def scenario():
        loop = asyncio.get_running_loop()
        attempts = []

        async def create_connection(factory, host, port):
            attempt = loop.create_future()
            attempts.append(attempt)
            await attempt

        loop.create_connection = create_connection
        link = PeerLink(
            "a", "b", resolve=lambda: ("127.0.0.1", 1), retry_min=5.0,
            retry_max=10.0,
        ).start()
        await poll_until(lambda: attempts)
        redial = link._redial
        for _ in range(3):
            link.dial_now()
            await asyncio.sleep(0.01)
        assert len(attempts) == 1 and link._redial is redial
        attempts[0].set_exception(OSError("refused"))
        await poll_until(lambda: backing_off(link))
        link.dial_now()
        await poll_until(lambda: len(attempts) == 2, timeout=1.0)
        await link.close()

    run(scenario())
