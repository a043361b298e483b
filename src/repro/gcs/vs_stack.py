"""A concrete view-synchronous service (the VS interface, implemented).

Membership: coordinator-based.  On every connectivity change the minimum
process id of the component runs a two-phase round: it collects every
member's highest known epoch, picks ``max + 1``, forms the view
``<(epoch, leader), component>`` and installs it at every member.  View
identifiers ``(epoch, origin)`` are unique system-wide (concurrent
components have distinct leaders) and installs are accepted only in
increasing identifier order, so each process's view sequence is monotone.

Ordering: per-view sequencer.  A member forwards its payloads to the
view's leader (minimum id), numbered per view, which orders them in that
order, assigns consecutive sequence numbers and broadcasts them; members
deliver in sequence order -- hence all members of a view deliver
prefixes of one common sequence.  The leader orders in
*runs*: every payload that reaches it (its own ``gpsnd`` included, with
no ``Data`` hop to itself) before a zero-delay ``vs_flush`` timer fires
gets the next consecutive slots and leaves in one frame -- ``Ordered``
for a run of one, ``OrderedRun`` otherwise.  A view change discards the
pending run with the rest of the view's ordering state.  A frame that
starts at the next position while nothing is buffered -- the common
case -- is delivered straight from the frame; any other frame is
buffered and delivered from there, each position leaving the buffer
the moment it is delivered.  Either way a frame that delivered any
position ends with one :meth:`VsListener.on_vs_batch_end`, where the
layer above acknowledges the whole frame at once.  The stack tracks no
VS-level stability (no VS-SAFE).  Nothing would read it:
:class:`~repro.gcs.dvs_layer.DvsLayer` derives ``dvs_safe`` from
client-level acknowledgements, because Figure 3's forwarding of VS-SAFE
to DVS-SAFE is unsound (DESIGN §5).

Safety relative to the VS specification (checked by the test suite through
the shared trace-property checkers):

- deliveries carry the view identifier and are accepted only in the
  matching current view (sending-view delivery);
- the sequencer gives every member the same per-view order, delivered
  gap-free (common order, prefix delivery), and orders each sender's
  payloads in its order, with no gap or duplicate (sender FIFO).

Liveness depends on the connectivity oracle and on component stability; a
round interrupted by another connectivity change is simply superseded.
"""

from types import MappingProxyType

from repro.core.viewids import ViewId
from repro.core.views import View
from repro.gcs.messages import (
    Ack,
    Collect,
    Data,
    Install,
    Ordered,
    OrderedRun,
    SafeNote,
    StateReply,
)
from repro.gcs.recorder import RecorderMixin
from repro.net.simulator import Node


class VsListener:
    """Upcall interface for users of the VS stack."""

    def on_vs_newview(self, view):
        """A new view was installed."""

    def on_vs_gprcv(self, payload, sender):
        """A payload from ``sender`` was delivered in the current view."""

    def on_vs_batch_end(self):
        """The frame just accepted delivered its last position: every
        ``on_vs_gprcv`` it caused has been made.  A scheduling point, not
        a VS action (nothing is recorded); never called for a frame that
        delivered nothing."""


class _ViewOrderingState:
    """Per-view sequencing state, discarded on every view change."""

    def __init__(self):
        self.sent = 0  # this process's Data count in the view
        # Sequencer side.
        self.next_assign = 1
        self.run = []  # (payload, sender) pairs awaiting the flush
        self.expected = {}  # sender -> the Data.n it may order next
        # Member side.
        self.buffer = {}
        self.next_deliver = 1


class VsStackNode(Node, RecorderMixin):
    """One process of the concrete view-synchronous stack.

    ``member`` overrides the default membership test (``pid in
    initial_view.set``): pass ``False`` to construct the process as a
    fresh joiner that starts with no current view and learns views only
    through installs -- the amnesiac-restart path of the live runtime
    (:mod:`repro.runtime`).
    """

    def __init__(self, pid, initial_view=None, listener=None, recorder=None,
                 member=None):
        super().__init__(pid)
        self.listener = listener or VsListener()
        self.recorder = recorder
        self.round_counter = 0
        self.active_round = None  # (round_id, members, replies) at leader
        self.data_refused = 0  # Data dropped as a duplicate or past a gap
        if member is None:
            member = initial_view is not None and pid in initial_view.set
        if member:
            self.view = initial_view
            self.max_epoch = initial_view.id.epoch
            self.ordering = _ViewOrderingState()
        else:
            self.view = None
            self.max_epoch = initial_view.id.epoch if initial_view else 0
            self.ordering = None

    # -- VS downcall ----------------------------------------------------------------

    def gpsnd(self, payload):
        """Multicast ``payload`` to the current view (VS-GPSND)."""
        if self.view is None:
            return
        if self.recorder is not None:
            self._record("vs_gpsnd", payload, self.pid)
        if self.pid == self._leader():
            self._order(payload, self.pid)
        else:
            self.ordering.sent += 1
            self.send(self._leader(), Data(
                self.view.id, payload, self.pid, self.ordering.sent
            ))

    def _leader(self):
        return min(self.view.set)

    # -- Failure detection / membership ------------------------------------------------

    def on_connectivity(self, component):
        if self.pid != min(component):
            return
        self.round_counter += 1
        round_id = (self.pid, self.round_counter)
        self.active_round = (round_id, frozenset(component), {})
        self._probe("vs_round", round_id, self.pid)
        self.broadcast(
            sorted(component), Collect(round_id, frozenset(component))
        )

    def on_message(self, src, msg):
        # An unknown type raises KeyError, which the host reports.
        self.message_handlers[type(msg)](self, src, msg)

    def _on_collect(self, src, msg):
        if self.pid not in msg.members:
            return
        self.send(src, StateReply(msg.round_id, self.max_epoch))

    def _on_state_reply(self, src, msg):
        if self.active_round is None:
            return
        round_id, members, replies = self.active_round
        if msg.round_id != round_id or src not in members:
            return
        replies[src] = msg.max_epoch
        if set(replies) != set(members):
            return
        epoch = max(max(replies.values()), self.max_epoch) + 1
        view = View(ViewId(epoch, self.pid), members)
        self.active_round = None
        self._probe("vs_form", round_id, view.id, self.pid)
        self.broadcast(sorted(members), Install(round_id, view))

    def _on_install(self, src, msg):
        view = msg.view
        if self.pid not in view.set:
            return
        if self.view is not None and not view.id > self.view.id:
            return
        self.max_epoch = max(self.max_epoch, view.id.epoch)
        self.view = view
        self.ordering = _ViewOrderingState()
        self._record("vs_newview", view, self.pid)
        self.listener.on_vs_newview(view)

    # -- In-view ordering ----------------------------------------------------------------------

    def _in_current_view(self, vid):
        return self.view is not None and self.view.id == vid

    def _on_data(self, src, msg):
        """Sequencer: order only a sender's next ``n``.  A duplicate, or
        any ``Data`` past a gap, is dropped: that sender stalls until
        the next view."""
        if not self._in_current_view(msg.vid) or self.pid != self._leader():
            return
        expected = self.ordering.expected
        n = expected.get(msg.sender, 1)
        if msg.n != n:
            self.data_refused += 1
            return
        expected[msg.sender] = n + 1
        self._order(msg.payload, msg.sender)

    def _order(self, payload, sender):
        """Sequencer: add the payload to the view's run; the run's first
        entry arms the flush."""
        run = self.ordering.run
        if not run:
            self.set_timer(0, "vs_flush")
        run.append((payload, sender))

    def _flush(self):
        """Sequencer: give the run consecutive slots and broadcast it as
        one frame.  A run a view change emptied flushes nothing, nor
        does a replayed ``vs_flush`` at a process with no view."""
        ordering = self.ordering
        if ordering is None or not ordering.run:
            return
        run, ordering.run = ordering.run, []
        seq = ordering.next_assign
        ordering.next_assign += len(run)
        if self.recorder is not None:
            for payload, _ in run:
                self._probe("vs_seq", payload, self.pid)
        if len(run) == 1:
            msg = Ordered(self.view.id, seq, *run[0])
        else:
            msg = OrderedRun(self.view.id, seq, tuple(run))
        self.broadcast(sorted(self.view.set), msg)

    timer_handlers = MappingProxyType({"vs_flush": _flush})

    def _on_ordered(self, src, msg):
        self._accept(msg.vid, msg.seq, ((msg.payload, msg.sender),))

    def _on_ordered_run(self, src, msg):
        self._accept(msg.vid, msg.seq, msg.entries)

    def _accept(self, vid, first_seq, entries):
        """Member: ``entries`` hold positions ``first_seq``, ``first_seq +
        1``, ...; buffer them and deliver in sequence order.  A position
        already delivered or buffered keeps what it has.  A frame that
        delivered anything ends with one ``on_vs_batch_end``.

        The common frame, the next positions with nothing buffered, is
        delivered straight from ``entries``: the buffer would hand back
        exactly those entries in exactly that order."""
        if not self._in_current_view(vid):
            return
        ordering = self.ordering
        buffer = ordering.buffer
        if first_seq == ordering.next_deliver and entries and not buffer:
            recorder = self.recorder
            listener = self.listener
            for payload, sender in entries:
                ordering.next_deliver += 1
                if recorder is not None:
                    self._record("vs_gprcv", payload, sender, self.pid)
                listener.on_vs_gprcv(payload, sender)
            listener.on_vs_batch_end()
            return
        for seq, entry in enumerate(entries, first_seq):
            if seq >= ordering.next_deliver:
                buffer.setdefault(seq, entry)
        first = ordering.next_deliver
        while ordering.next_deliver in buffer:
            payload, sender = buffer.pop(ordering.next_deliver)
            ordering.next_deliver += 1
            self._record("vs_gprcv", payload, sender, self.pid)
            self.listener.on_vs_gprcv(payload, sender)
        if ordering.next_deliver != first:
            self.listener.on_vs_batch_end()

    def _drop(self, src, msg):
        """A stability frame (``Ack``, ``SafeNote``): no node sends one,
        and nothing reads VS stability, so one that arrives (a forged
        frame) is dropped unretained."""

    #: Wire message type -> handler, read by :meth:`on_message`.
    message_handlers = MappingProxyType({
        Collect: _on_collect,
        StateReply: _on_state_reply,
        Install: _on_install,
        Data: _on_data,
        Ordered: _on_ordered,
        OrderedRun: _on_ordered_run,
        Ack: _drop,
        SafeNote: _drop,
    })
