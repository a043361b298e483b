"""Asyncio TCP transport: two asyncio protocols, no hop per frame.

Topology mirrors the simulator's directed channels: every ordered pair
of processes gets its own TCP connection, dialed by the sender.  A
:class:`PeerLink` is the protocol of its own outbound connection: while
the link is up, unpaused and nothing is pending, a send *is* a socket
write in the caller's loop iteration; otherwise the frame waits in one
bounded deque (peer down, or asyncio's ``pause_writing`` says the socket
is full) that ``connection_made`` / ``resume_writing`` flush in order.
A :class:`Listener` accepts with one ``asyncio.BufferedProtocol`` per
connection: a read lands in the listener's one reused buffer, and
``buffer_updated`` hands those bytes to the connection's frame decoder,
demands the :class:`~repro.runtime.codec.Hello` handshake and calls
``on_frame`` -- a read *is* a dispatch, and allocates no read buffer.
The only coroutine left is the redial, alive only while a link is
disconnected.

Loss semantics are deliberately the simulator's fair-lossy channel: a
frame queued while the peer is down is flushed on reconnect, the oldest
frames are dropped when the queue is full, and anything in flight when a
connection dies is simply lost.  The layers above (membership, ordering,
recovery) were built for exactly that adversary, so none of them change.

Backoff semantics: a *successful connect does not reset the backoff*.
TCP accept proves only that the peer's listener queue took the SYN -- a
crash-looping peer (or a half-open listener) accepts and instantly dies,
and resetting on accept would turn every such peer into a tight redial
loop at ``retry_min``.  The backoff resets only once the connection has
*survived* ``stable_after`` seconds (default: ``retry_max``); until then
each dial, successful or not, keeps growing the delay toward it.

Dial back at the handshake: when a peer's :class:`Hello` arrives on an
accepted connection, a link to that peer that is sleeping out its
backoff dials at once (:meth:`PeerLink.dial_now`), because the peer has
just proved itself up.  A restarted peer is therefore heard back within
one round trip instead of up to ``2 * retry_max`` later.  This happens
once per accepted connection, never per frame, and it neither resets
nor shortens the backoff that follows: a crash-looping peer wakes the
link at most once per connection *it* managed to open, so the link
redials no faster than the peer's own backoff lets it dial in, and a
connection in flight is never restarted.

Suspect on a refused redial: a crash closes the peer's sockets, so the
link loses its connection and redials, and the redial is refused
within milliseconds because nothing listens on the peer's address any
more.  The first ``ConnectionRefusedError`` after an *established*
connection dropped calls ``on_refused(peer)``, once per lost
connection.  Nothing else does: not a refusal at boot (the peer is not
up yet), not the later refusals of the same outage, and not a
``KeyError``, a timeout or any other ``OSError``.  A peer that can
reach us but whose address refuses every dial (a firewall's reset)
never had a connection to lose, so it cannot flap once per backoff; it
is left to the heartbeat timeout.  A host name with several addresses
(``localhost`` as ``::1`` and ``127.0.0.1``) counts as refused when
every address refused.  Python 3.12 reports that as an
``ExceptionGroup`` of the refusals; older versions fold them into one
plain ``OSError``, so there such a peer's crash waits out the timeout.
"""

import asyncio
import builtins
import random
import sys
from collections import deque

from repro.runtime.codec import CodecError, FrameDecoder, Hello, encode_frame

#: Default bound on a link's outbound queue (frames).
QUEUE_LIMIT = 4096

#: Bytes a listener's one receive buffer holds (the most one read takes).
_READ_BUFFER = 1 << 16

#: A dial that failed at every address of a host name raises each
#: address's error, grouped (Python 3.12+), so a refusal is told from
#: the rest.
_ALL_ERRORS = {"all_errors": True} if sys.version_info >= (3, 12) else {}
_DIAL_ERRORS = (
    KeyError, OSError, ValueError,
    getattr(builtins, "ExceptionGroup", OSError),  # Python 3.11+
)


def _refused(exc):
    """Whether a failed dial was refused at every address it tried."""
    if isinstance(exc, ConnectionRefusedError):
        return True
    tried = getattr(exc, "exceptions", None)  # an ExceptionGroup's
    return bool(tried) and all(_refused(each) for each in tried)


class PeerLink(asyncio.Protocol):
    """The reconnecting outbound connection to one peer.

    ``resolve`` is a zero-argument callable returning the peer's current
    ``(host, port)``; it is consulted on *every* connection attempt, so
    a peer that restarts on a new port is picked up without tearing the
    link down.  A ``KeyError``/``OSError`` from resolution counts as a
    failed attempt and is retried with backoff.  ``on_refused(peer)``
    hears the first refused redial of each lost connection (see the
    module docstring).
    """

    def __init__(self, local_pid, peer_pid, resolve,
                 queue_limit=QUEUE_LIMIT, retry_min=0.05, retry_max=1.0,
                 stable_after=None, on_error=None, on_refused=None):
        self.local_pid = local_pid
        self.peer_pid = peer_pid
        self._resolve = resolve
        self._queue_limit = queue_limit
        self._retry_min = retry_min
        self._retry_max = retry_max
        # A connection resets the backoff only by surviving this long.
        self._stable_after = (
            retry_max if stable_after is None else stable_after
        )
        self._on_error = on_error
        self._on_refused = on_refused
        # Backoff jitter avoids N nodes hammering a rebooting peer in
        # lockstep; real-transport entropy is fine here (DESIGN.md §9).
        self._jitter = random.Random()
        self._backoff = retry_min
        # The fair-lossy channel: frames wait here and nowhere else.
        self._pending = deque()
        self._transport = None  # set exactly while connected
        self._writable = False  # connected, and asyncio has not paused us
        self._redial = None
        # Pending exactly while the redial sleeps out a backoff.
        self._wake = None
        # Set while a lost connection's outage has not been refused yet.
        self._lost = False
        self._closed = False
        self.connects = 0
        #: Frames handed to a connected transport (not: received).
        self.sent = 0
        self.dropped = 0
        #: Drops caused specifically by queue overflow (drop-oldest);
        #: a subset of ``dropped``, which also counts closed-link drops.
        self.queue_drops = 0
        #: The most frames the outbound queue has held at once.
        self.queue_high = 0

    def start(self):
        """Begin dialing; must be called on the event loop."""
        self._redial = asyncio.ensure_future(self._dial(0.0))
        return self

    def send_frame(self, frame):
        """Send an already-encoded frame (fair-lossy: a full queue drops
        the oldest frame, a closed link drops silently).  This is the
        fan-out path: a broadcast encodes its frame once and hands the
        same bytes to every link instead of re-encoding per destination."""
        if self._closed:
            self.dropped += 1
        elif self._writable and not self._pending:  # FIFO: never overtake
            self._transport.write(frame)
            self.sent += 1
        else:
            if len(self._pending) >= self._queue_limit:
                self._pending.popleft()
                self.dropped += 1
                self.queue_drops += 1
            self._pending.append(frame)
            if len(self._pending) > self.queue_high:
                self.queue_high = len(self._pending)

    def queue_depth(self):
        """Frames currently waiting in the outbound queue."""
        return len(self._pending)

    # -- asyncio.Protocol: the outbound connection ---------------------------

    def connection_made(self, transport):
        self._transport = transport
        self._lost = False
        self._connected_at = asyncio.get_running_loop().time()
        self.connects += 1
        transport.write(encode_frame((self.local_pid, Hello(self.local_pid))))
        self.resume_writing()

    def pause_writing(self):
        self._writable = False

    def resume_writing(self):
        """Flush what waited, in order (also run by ``connection_made``).
        ``write`` calls ``pause_writing`` synchronously when it fills the
        buffer, so the loop condition sees it."""
        self._writable = True
        while self._pending and self._writable:
            self._transport.write(self._pending.popleft())
            self.sent += 1

    def connection_lost(self, exc):
        self._transport = None
        self._writable = False
        if self._closed:
            return
        self._lost = True
        delay = 0.0
        age = asyncio.get_running_loop().time() - self._connected_at
        if age >= self._stable_after:
            self._backoff = self._retry_min
        else:  # died young: keep backing off (see the module docstring)
            delay = self._next_delay()
        self._redial = asyncio.ensure_future(self._dial(delay))

    def _next_delay(self):
        delay = self._backoff * (1.0 + self._jitter.random())
        self._backoff = min(self._backoff * 2, self._retry_max)
        return delay

    def dial_now(self):
        """Cut a backoff short: the peer has just dialled us, so it is up.
        A connected link, or one whose connect is in flight, is left
        alone, and the backoff keeps growing (see the module docstring)."""
        if self._wake is not None and not self._wake.done():
            self._wake.set_result(None)

    async def _dial(self, delay):
        loop = asyncio.get_running_loop()
        while not self._closed:
            if delay:
                wake = self._wake = loop.create_future()
                await asyncio.wait((wake,), timeout=delay)
                wake.cancel()  # a no-op if dial_now() woke us
            try:
                host, port = self._resolve()
                await loop.create_connection(
                    lambda: self, host, port, **_ALL_ERRORS
                )
                return
            except _DIAL_ERRORS as exc:
                delay = self._next_delay()
                if self._lost and _refused(exc):
                    self._lost = False
                    if self._on_refused is not None:
                        self._on_refused(self.peer_pid)

    async def close(self):
        self._closed = True
        if self._transport is not None:
            self._transport.close()
        if self._redial is not None:
            self._redial.cancel()
            try:
                await self._redial
            except asyncio.CancelledError:
                pass
            except Exception as exc:
                # A real teardown error must surface, not vanish into a
                # dead except arm (CancelledError is a BaseException).
                if self._on_error is not None:
                    self._on_error(exc)
                else:
                    raise


class _Inbound(asyncio.BufferedProtocol):
    """One accepted connection: decode, check, dispatch, per read."""

    def __init__(self, listener):
        self._listener = listener
        self._decoder = FrameDecoder()
        self._src = None
        self._transport = None

    def connection_made(self, transport):
        self._transport = transport
        self._listener._connections.add(transport)

    def connection_lost(self, exc):
        self._listener._connections.discard(self._transport)

    def _reject(self, why):
        self._listener.rejected += 1
        self._listener.last_refusal = why
        self._transport.close()

    def get_buffer(self, sizehint):
        return self._listener._buffer

    def buffer_updated(self, nbytes):
        listener = self._listener
        listener.bytes_in += nbytes
        try:
            frames = self._decoder.feed(listener._buffer[:nbytes])
        except CodecError as exc:
            return self._reject(str(exc))
        for envelope in frames:
            if not (
                isinstance(envelope, tuple)
                and len(envelope) == 2
                and isinstance(envelope[0], str)
            ):
                return self._reject("not a (sender, message) envelope")
            sender, msg = envelope
            if self._src is None:
                if not isinstance(msg, Hello) or msg.pid != sender:
                    return self._reject("no Hello naming its sender first")
                self._src = sender
                if listener._on_hello is not None:
                    listener._on_hello(sender)
            if sender != self._src:
                return self._reject("a sender other than its Hello's")
            try:
                listener._on_frame(sender, msg)
            except Exception as exc:
                # Contained here: an exception escaping buffer_updated
                # would be logged by asyncio as a fatal transport error.
                if listener._on_error is not None:
                    listener._on_error(exc)
                self._transport.close()
                return


class Listener:
    """The accept side: one TCP server feeding decoded frames upward.

    ``on_frame(src, msg)`` is invoked on the event loop for every frame
    after the connection's :class:`Hello`.  Protocol violations -- a
    malformed frame, a missing handshake, a frame whose envelope names a
    different sender than the handshake -- drop that one connection and
    never propagate; an exception *from the callback* also only kills
    the offending connection, after being reported through
    ``on_error(exc)``.  ``on_hello(src)`` is invoked once per accepted
    connection, when its handshake names the peer that dialled in.
    ``rejected`` counts the dropped connections, and ``last_refusal``
    says why the last one was dropped; ``bytes_in`` counts every byte
    read, over all connections.
    """

    def __init__(self, on_frame, host="127.0.0.1", port=0, on_error=None,
                 on_hello=None):
        self._on_frame = on_frame
        self._on_error = on_error
        self._on_hello = on_hello
        self.host = host
        self.port = port
        self._server = None
        self._connections = set()
        # Every connection reads into this one buffer: reads run one at
        # a time on the loop thread, and feed() copies what it keeps.
        self._buffer = memoryview(bytearray(_READ_BUFFER))
        self.rejected = 0
        self.last_refusal = None
        self.bytes_in = 0

    async def start(self):
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _Inbound(self), self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def close(self):
        """Stop accepting *and* drop every established connection --
        ``Server.close`` alone leaves accepted sockets alive, which
        would let a peer keep writing to a dead node forever without
        ever noticing it should redial."""
        if self._server is None:
            return
        self._server.close()
        for transport in list(self._connections):
            transport.close()
        await self._server.wait_closed()
