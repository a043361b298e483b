"""One live process of the stack: the VS→DVS→{TO,CB} towers on real
sockets.

:class:`RuntimeNode` hosts the *unchanged* layer stack of
:mod:`repro.gcs` -- the same :class:`~repro.gcs.vs_stack.VsStackNode`,
:class:`~repro.gcs.dvs_layer.DvsLayer`,
:class:`~repro.gcs.to_layer.ToLayer` and
:class:`~repro.gcs.cb_layer.CbLayer` objects the simulator drives, with
both ordering towers sharing the DVS layer through a
:class:`~repro.gcs.cb_layer.DvsFanout` -- and is itself the stack's
``net``, the slice of :class:`repro.net.simulator.Network` a hosted
:class:`~repro.net.simulator.Node` calls:

- ``send``/``broadcast`` go through per-peer reconnecting TCP links
  (:class:`~repro.runtime.transport.PeerLink`);
- ``set_timer`` maps onto ``loop.call_later``, whose
  monotonic clock is also the one the node's own timestamps read
  (:class:`MonotonicClock`, started at node boot);
- ``on_connectivity`` is fed by the heartbeat estimator
  (:class:`~repro.runtime.heartbeat.ConnectivityEstimator`) instead of
  the simulator's oracle; a link whose redial is refused makes it
  suspect that peer at once, and the minimum of the reported component
  re-issues it when a member's heartbeats keep naming another view.

Nothing above the transport knows it left the simulator.
"""

import asyncio
from collections import deque

from repro.gcs.messages import OrderedRun
from repro.gcs.tower import Tower
from repro.runtime.codec import (
    CodecError,
    Heartbeat,
    Hello,
    encode_frame,
    validate_message,
)
from repro.runtime.heartbeat import HB_INTERVAL, ConnectivityEstimator
from repro.runtime.transport import Listener, PeerLink

#: Cap on the per-node layer-error buffer.  Errors are diagnostics:
#: keeping the newest ``ERROR_LIMIT`` preserves what tests and
#: operators look at while bounding what a hostile peer can grow.
ERROR_LIMIT = 256


class MonotonicClock:
    """Seconds since construction, read from the loop's monotonic clock
    (the same clock ``call_later`` uses, so timers and ``now`` agree)."""

    def __init__(self, loop):
        self._loop = loop
        self._t0 = loop.time()

    @property
    def now(self):
        return self._loop.time() - self._t0


class RuntimeNode:
    """One process of the live deployment.

    ``book`` maps process ids to ``(host, port)`` pairs and is read
    *live*: the owner may mutate it (e.g. when a peer restarts on a new
    port) and links pick the change up on their next connect attempt.
    This node's own entry is written into the book when its listener
    binds (``port=0`` requests an OS-assigned port).

    ``member=False`` builds the whole tower in the fresh-joiner
    configuration (see the gcs layers): the amnesiac-restart path.
    """

    def __init__(self, pid, book, initial_view, recorder=None, member=None,
                 host="127.0.0.1", port=0, hb_interval=HB_INTERVAL,
                 hb_timeout=None, obs=None, faultnet=None, wiretap=None,
                 dvs_factory=None):
        self.pid = pid
        self.book = book
        self.initial_view = initial_view
        #: Shared cluster-wide fault interposer (``repro.runtime.faultnet``)
        #: consulted on every frame sent and received; ``None`` = no faults.
        self._faultnet = faultnet
        #: Shared trace recorder capturing this node's stack inputs.
        self._wiretap = wiretap
        self._member = member
        self._obs = obs
        self._host = host
        self._port = port
        self._hb_interval = hb_interval
        self._hb_timeout = hb_timeout
        self.clock = None
        self.tower = Tower(
            pid, initial_view, recorder=recorder, member=member,
            dvs_factory=dvs_factory,
        )
        self.stack = self.tower.stack
        self.stack.net = self
        self.dvs = self.tower.dvs
        self.to = self.tower.to
        self.cb = self.tower.cb
        #: Exceptions raised by the hosted layers while handling events;
        #: they are recorded (not propagated) so one bad frame cannot
        #: take the transport down, and tests assert the buffer is
        #: empty.  Bounded: every received frame can append here, so an
        #: unbounded list would let a hostile peer grow it forever;
        #: the cap keeps the newest errors.
        self.errors = deque(maxlen=ERROR_LIMIT)
        self.dropped_unroutable = 0
        #: Frames dropped by :meth:`_validate_inbound`: unknown sender
        #: or a payload that fails the wire-schema check.
        self.dropped_invalid = 0
        #: Frames handed to a link, and their bytes (a broadcast counts
        #: once per destination); frames that passed the inbound gate;
        #: connectivity reports handed to the stack.  Like every
        #: ``stats()`` field, per incarnation.
        self.frames_out = 0
        self.bytes_out = 0
        self.frames_in = 0
        self.reports = 0
        self._links = {}
        self._listener = None
        self._estimator = None
        #: Since when each member's heartbeats have named a view other
        #: than ours.
        self._split_since = {}
        self._hb_handle = None
        self._timers = set()
        self._loop = None
        self._started = False
        self._stopped = False

    # -- Lifecycle ---------------------------------------------------------

    async def start(self, clock=None):
        """Bind the listener, publish the address, start links and
        heartbeats.  Must run on the event loop that will own the node."""
        loop = asyncio.get_running_loop()
        self._loop = loop
        self.clock = clock if clock is not None else MonotonicClock(loop)
        self._listener = Listener(
            self._on_frame, host=self._host, port=self._port,
            on_error=self.errors.append,
            on_hello=self._on_hello,
        )
        await self._listener.start()
        self.book[self.pid] = (self._host, self._listener.port)
        for peer in sorted(self.book):
            if peer != self.pid:
                self._ensure_link(peer)
        self._estimator = ConnectivityEstimator(
            self.pid,
            peers=self._peer_ids,
            clock=self.clock,
            send_heartbeats=self._send_heartbeats,
            notify=self._on_component,
            interval=self._hb_interval,
            timeout=self._hb_timeout,
            expected=self.initial_view.set,
        )
        # Next turn, not an interval in: a node alone reports at once.
        self._hb_handle = loop.call_soon(self._hb_tick)
        self._started = True
        self._tap("start", self._member)
        self.stack.on_start()
        return self

    async def stop(self):
        """Tear everything down; hosted layer state is left readable."""
        if not self._stopped and self._started:
            self._tap("stop")
        self._stopped = True
        if self._hb_handle is not None:
            self._hb_handle.cancel()
        for timer in list(self._timers):
            timer.cancel()
        self._timers.clear()
        for link in self._links.values():
            await link.close()
        if self._listener is not None:
            await self._listener.close()

    @property
    def port(self):
        return self._listener.port if self._listener is not None else None

    def _peer_ids(self):
        return [p for p in sorted(self.book) if p != self.pid]

    def _ensure_link(self, peer):
        if peer not in self._links:
            self._links[peer] = PeerLink(
                self.pid, peer,
                resolve=lambda p=peer: self.book[p],
                on_error=self.errors.append,
                on_refused=self._on_refused,
            ).start()
        return self._links[peer]

    # -- Trace capture (no-op unless ``wiretap`` was supplied) -------------

    def _tap(self, kind, *data):
        if self._wiretap is not None and self.clock is not None:
            self._wiretap.record(self.clock.now, self.pid, kind, *data)

    # -- The stack's ``net``: downcalls from the hosted ``Node`` ------------

    def send(self, src, dst, msg):
        self.broadcast(src, (dst,), msg)

    def broadcast(self, src, dsts, msg):
        """Fan ``msg`` out, encoding the frame *once* for all peers.

        A self-send goes through the loop's ready queue without touching
        the codec, so it behaves like any other message (delivered
        asynchronously, never reentrant).  A sequencer run too large
        for one frame goes out as its single ``Ordered`` messages, so
        it loses only the entries that would not fit alone either.
        """
        if self._stopped:
            return
        remote = []
        for dst in dsts:
            if dst == self.pid:
                self._loop.call_soon(self._local_deliver, msg)
            elif dst in self.book:
                remote.append(dst)
            else:
                self.dropped_unroutable += 1
        if not remote:
            return
        try:
            frame = encode_frame((self.pid, msg))
        except CodecError as exc:
            if type(msg) is OrderedRun:
                for single in msg.split():
                    self.broadcast(src, remote, single)
            else:
                self.errors.append(exc)
            return
        for dst in remote:
            self._send_encoded(dst, msg, frame)

    def set_timer(self, pid, delay, tag):
        handle = self._loop.call_later(
            delay, lambda: self._fire_timer(handle, tag)
        )
        self._timers.add(handle)
        return handle

    def _send_encoded(self, dst, msg, frame):
        if self._faultnet is not None:
            delays = self._faultnet.outbound(self.pid, dst, self.clock.now)
            if delays is not None:
                # A matching fault decided this frame's fate: [] drops
                # it, otherwise each entry queues one copy after its
                # delay (0.0 = now).  Delayed copies re-check nothing
                # at fire time except node shutdown -- blocking is the
                # receiver's job, as in the simulator.
                for delay in delays:
                    if delay > 0.0:
                        self._loop.call_later(
                            delay, self._flush_frame, dst, msg, frame
                        )
                    else:
                        self._flush_frame(dst, msg, frame)
                return
        self._flush_frame(dst, msg, frame)

    def _flush_frame(self, dst, msg, frame):
        if self._stopped:
            return
        self._ensure_link(dst).send_frame(frame)
        self.frames_out += 1
        self.bytes_out += len(frame)
        if self._obs is not None:
            self._obs.wire_event(
                "wire_send", self.pid, dst, msg, self.clock.now
            )

    def _local_deliver(self, msg):
        if not self._stopped:
            self._dispatch(self.pid, msg)

    def _fire_timer(self, handle, tag):
        self._timers.discard(handle)
        if not self._stopped:
            self._tap("timer", tag)
            try:
                self.stack.on_timer(tag)
            except Exception as exc:
                self.errors.append(exc)

    def _hb_tick(self):
        """Re-arm, then poll: a failing poll is recorded like a timer's."""
        self._hb_handle = self._loop.call_later(
            self._estimator.interval, self._hb_tick
        )
        try:
            self._estimator.poll()
        except Exception as exc:
            self.errors.append(exc)

    def _send_heartbeats(self):
        view = self.stack.view
        self.broadcast(
            self.pid, self._peer_ids(),
            Heartbeat(None if view is None else view.id),
        )

    # -- Upcalls from transport and estimator ------------------------------

    def _validate_inbound(self, src, msg):
        """Gate for every frame that reaches this node.

        The transport handshake only proves the peer *claimed* ``src``;
        the bytes behind it are attacker-controlled.  Frames from
        senders outside the address book, or whose payload fails the
        shallow wire-schema check, are counted and dropped before they
        touch the estimator or the hosted automaton stack.
        """
        if src not in self.book:
            self.dropped_invalid += 1
            return False
        if not validate_message(msg):
            self.dropped_invalid += 1
            return False
        return True

    def _on_hello(self, src):
        """A peer dialled in: dial it back now, on a new link or by
        cutting a backoff short (heard back in one round trip)."""
        if not self._stopped and src != self.pid and src in self.book:
            self._ensure_link(src).dial_now()

    def _on_refused(self, peer):
        """The redial of a lost connection to ``peer`` was refused: it
        crashed, so stop counting it as connected now."""
        if not self._stopped:
            self._estimator.suspect(peer)

    def _on_frame(self, src, msg):
        if self._stopped:
            return
        if not self._validate_inbound(src, msg):
            return
        if self._faultnet is not None and self._faultnet.blocked(
            src, self.pid
        ):
            # Delivery-time veto (partitions, one-way blocks): the frame
            # is dropped *before* the estimator hears it, so a blocked
            # peer's heartbeats go dark and suspicion follows, exactly
            # as under the simulator's connectivity oracle.
            self._faultnet.note_blocked_recv()
            return
        self._estimator.heard(src)
        self.frames_in += 1
        if isinstance(msg, (Hello, Heartbeat)):
            if type(msg) is Heartbeat and msg.view is not None:
                self._check_view(src, msg.view)
            return
        if self._obs is not None:
            self._obs.wire_event(
                "wire_recv", self.pid, src, msg, self.clock.now
            )
        self._dispatch(src, msg)

    def _check_view(self, src, view):
        """The merge trigger: the minimum of the reported component
        re-issues it once a member's heartbeats have named a view other
        than its own for longer than the estimator's ``timeout``.

        A shorter mismatch is a round in flight.  A longer one is a
        group split by one-sided suspicion, which no connectivity change
        at the minimum would ever end; re-issuing the component starts
        a fresh round (DESIGN.md §9: reports decide only when rounds
        start).  Heartbeats go to every peer, so the minimum sees any
        split inside its component, and only it acts."""
        component = self._estimator.reported
        own = self.stack.view
        if (
            component is None
            or src not in component
            or self.pid != min(component)
            or (own is not None and own.id == view)
        ):
            self._split_since.pop(src, None)
            return
        now = self.clock.now
        since = self._split_since.setdefault(src, now)
        if now - since > self._estimator.timeout:
            self._on_component(component)

    def _dispatch(self, src, msg):
        self._tap("recv", src, msg)
        try:
            self.stack.on_message(src, msg)
        except Exception as exc:
            self.errors.append(exc)

    def _on_component(self, component):
        if self._stopped:
            return
        # Each round gets a full timeout before a split re-issues it.
        self._split_since.clear()
        self.reports += 1
        self._tap("conn", tuple(sorted(component)))
        try:
            self.stack.on_connectivity(component)
        except Exception as exc:
            self.errors.append(exc)

    # -- Observation -------------------------------------------------------

    def stats(self):
        """This incarnation's counts: the node's own, the listener's
        and, under ``links``, each outbound link's."""
        listener = self._listener
        links = {
            peer: {
                "connects": link.connects,
                "sent": link.sent,
                "dropped": link.dropped,
                "queue_drops": link.queue_drops,
                "queue_depth": link.queue_depth(),
                "queue_high": link.queue_high,
            }
            for peer, link in sorted(self._links.items())
        }
        return {
            "pid": self.pid,
            "port": self.port,
            "errors": len(self.errors),
            "dropped_unroutable": self.dropped_unroutable,
            "dropped_invalid": self.dropped_invalid,
            "rejected": listener.rejected if listener else 0,
            "last_refusal": listener.last_refusal if listener else None,
            "data_refused": self.stack.data_refused,
            "frames_out": self.frames_out,
            "bytes_out": self.bytes_out,
            "frames_in": self.frames_in,
            "bytes_in": listener.bytes_in if listener else 0,
            "reports": self.reports,
            "links": links,
        }
