"""Asyncio TCP transport: reconnecting peer links and the accept side.

Topology mirrors the simulator's directed channels: every ordered pair
of processes gets its own TCP connection, dialed by the sender.  A
:class:`PeerLink` owns the outbound half of one such channel -- a
bounded send queue, a connect/retry loop with jittered exponential
backoff, and per-link counters.  A :class:`Listener` owns the inbound
half -- it accepts connections, demands a :class:`~repro.runtime.codec.
Hello` handshake, reassembles frames and hands ``(src, msg)`` pairs to
its callback.

Loss semantics are deliberately the simulator's fair-lossy channel: a
frame queued while the peer is down is flushed on reconnect, the oldest
frames are dropped when the queue is full, and anything in flight when a
connection dies is simply lost.  The layers above (membership, ordering,
recovery) were built for exactly that adversary, so none of them change.

Backoff semantics: a *successful connect does not reset the backoff*.
TCP accept proves only that the peer's listener queue took the SYN -- a
crash-looping peer (or a half-open listener) accepts and instantly dies,
and resetting on accept would turn every such peer into a tight redial
loop at ``retry_min``.  The backoff resets to ``retry_min`` only once
the connection has *survived* ``stable_after`` seconds (default:
``retry_max``); until then each dial, successful or not, keeps growing
the delay toward ``retry_max``.
"""

import asyncio
import random

from repro.runtime.codec import (
    CodecError,
    FrameDecoder,
    Hello,
    encode_frame,
)

#: Default bound on a link's outbound queue (frames).
QUEUE_LIMIT = 4096

_READ_CHUNK = 1 << 16


class PeerLink:
    """The reconnecting outbound connection to one peer.

    ``resolve`` is a zero-argument callable returning the peer's current
    ``(host, port)``; it is consulted on *every* connection attempt, so
    a peer that restarts on a new port is picked up without tearing the
    link down.  A ``KeyError``/``OSError`` from resolution counts as a
    failed attempt and is retried with backoff.
    """

    def __init__(self, local_pid, peer_pid, resolve,
                 queue_limit=QUEUE_LIMIT, retry_min=0.05, retry_max=1.0,
                 stable_after=None, on_connect=None, on_drop=None,
                 on_queue_drop=None, on_error=None):
        self.local_pid = local_pid
        self.peer_pid = peer_pid
        self._resolve = resolve
        self._queue_limit = queue_limit
        self._retry_min = retry_min
        self._retry_max = retry_max
        # A connection is "healthy" (and resets the backoff) only after
        # surviving this long -- see the module docstring.
        self._stable_after = (
            retry_max if stable_after is None else stable_after
        )
        self._on_connect = on_connect
        self._on_drop = on_drop
        self._on_queue_drop = on_queue_drop
        self._on_error = on_error
        # Backoff jitter avoids N nodes hammering a rebooting peer in
        # lockstep; real-transport entropy is fine here (DESIGN.md §9).
        self._jitter = random.Random()  # lint: ignore[DVS007]
        self._queue = None
        self._task = None
        self._closed = False
        self.connects = 0
        self.sent = 0
        self.dropped = 0
        #: Drops caused specifically by queue overflow (drop-oldest);
        #: a subset of ``dropped``, which also counts closed-link drops.
        self.queue_drops = 0

    def start(self):
        """Begin dialing; must be called on the event loop."""
        self._queue = asyncio.Queue(maxsize=self._queue_limit)
        self._task = asyncio.ensure_future(self._run())
        return self

    def send(self, msg):
        """Encode and queue ``msg`` for the peer (fair-lossy: full queue
        drops the oldest frame, a closed link drops silently)."""
        if self._closed or self._queue is None:
            self._drop()
            return
        self.send_frame(encode_frame((self.local_pid, msg)))

    def send_frame(self, frame):
        """Queue an already-encoded frame.  This is the fan-out path:
        a broadcast encodes its frame once and hands the same bytes to
        every link instead of re-encoding per destination."""
        if self._closed or self._queue is None:
            self._drop()
            return
        if self._queue.full():
            self._queue.get_nowait()
            self._drop(overflow=True)
        self._queue.put_nowait(frame)

    def _drop(self, overflow=False):
        self.dropped += 1
        if overflow:
            self.queue_drops += 1
            if self._on_queue_drop is not None:
                self._on_queue_drop(self.peer_pid)
        if self._on_drop is not None:
            self._on_drop(self.peer_pid)

    def queue_depth(self):
        """Frames currently waiting in the outbound queue."""
        return self._queue.qsize() if self._queue is not None else 0

    async def _run(self):
        backoff = self._retry_min
        loop = asyncio.get_running_loop()
        while not self._closed:
            try:
                host, port = self._resolve()
                reader, writer = await asyncio.open_connection(host, port)
            except (KeyError, OSError, ValueError):
                await asyncio.sleep(
                    backoff * (1.0 + self._jitter.random())
                )
                backoff = min(backoff * 2, self._retry_max)
                continue
            self.connects += 1
            if self._on_connect is not None:
                self._on_connect(self.peer_pid)
            connected_at = loop.time()
            try:
                writer.write(
                    encode_frame((self.local_pid, Hello(self.local_pid)))
                )
                await writer.drain()
                while True:
                    frame = await self._queue.get()
                    writer.write(frame)
                    await writer.drain()
                    self.sent += 1
                    # drain() returning proves nothing about peer
                    # receipt (the kernel buffers); only surviving a
                    # stable interval marks the link healthy.
                    if (
                        backoff != self._retry_min
                        and loop.time() - connected_at
                        >= self._stable_after
                    ):
                        backoff = self._retry_min
            except (OSError, ConnectionError):
                pass  # the peer went away; reconnect below
            finally:
                writer.close()
                try:
                    await writer.wait_closed()
                except (OSError, ConnectionError):
                    pass
            if self._closed:
                return
            if loop.time() - connected_at >= self._stable_after:
                backoff = self._retry_min
            else:
                # The connection died young (crash-looping peer,
                # half-open listener): keep backing off so the redial
                # rate stays bounded.
                await asyncio.sleep(
                    backoff * (1.0 + self._jitter.random())
                )
                backoff = min(backoff * 2, self._retry_max)

    async def close(self):
        self._closed = True
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            except Exception as exc:
                # A real teardown error must surface, not vanish into a
                # dead except arm (CancelledError is a BaseException).
                if self._on_error is not None:
                    self._on_error(exc)
                else:
                    raise


class Listener:
    """The accept side: one TCP server feeding decoded frames upward.

    ``on_frame(src, msg)`` is invoked on the event loop for every frame
    after the connection's :class:`Hello`.  Protocol violations -- a
    malformed frame, a missing handshake, a frame whose envelope names a
    different sender than the handshake -- drop that one connection and
    never propagate; an exception *from the callback* also only kills
    the offending connection, after being reported through
    ``on_error(exc)``.
    """

    def __init__(self, on_frame, host="127.0.0.1", port=0, on_error=None,
                 on_bytes=None):
        self._on_frame = on_frame
        self._on_error = on_error
        self._on_bytes = on_bytes
        self.host = host
        self.port = port
        self._server = None
        self._writers = set()
        self.rejected = 0

    async def start(self):
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def _handle(self, reader, writer):
        self._writers.add(writer)
        decoder = FrameDecoder()
        src = None
        try:
            while True:
                data = await reader.read(_READ_CHUNK)
                if not data:
                    return
                if self._on_bytes is not None:
                    self._on_bytes(len(data))
                try:
                    frames = decoder.feed(data)
                except CodecError:
                    self.rejected += 1
                    return
                for envelope in frames:
                    if not (
                        isinstance(envelope, tuple)
                        and len(envelope) == 2
                        and isinstance(envelope[0], str)
                    ):
                        self.rejected += 1
                        return
                    sender, msg = envelope
                    if src is None:
                        if not isinstance(msg, Hello) or msg.pid != sender:
                            self.rejected += 1
                            return
                        src = sender
                    if sender != src:
                        self.rejected += 1
                        return
                    try:
                        self._on_frame(src, msg)
                    except Exception as exc:
                        if self._on_error is not None:
                            self._on_error(exc)
                        return
        except asyncio.CancelledError:
            # Event-loop shutdown while blocked in read: finish the
            # task normally so asyncio's stream protocol callback does
            # not log a spurious traceback at interpreter teardown.
            return
        finally:
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (asyncio.CancelledError, OSError, ConnectionError):
                pass

    async def close(self):
        """Stop accepting *and* drop every established connection --
        ``Server.close`` alone leaves accepted sockets alive, which
        would let a peer keep writing to a dead node forever without
        ever noticing it should redial."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for writer in list(self._writers):
            writer.close()
