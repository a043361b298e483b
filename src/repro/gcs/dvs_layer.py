"""The runtime coding of ``VS-TO-DVS_p`` (dynamic primary filtering).

Functionally the same algorithm as :class:`repro.dvs.vs_to_dvs.VsToDvs`,
recast from an I/O automaton into an event-driven layer over
:class:`repro.gcs.vs_stack.VsStackNode`:

- on every VS view, exchange "info" messages carrying ``(act, amb)``;
- attempt the view (report it to the application as a *primary*) only
  after hearing from every other member and only if it majority-intersects
  every view in ``use = {act} ∪ amb``;
- on application registration, multicast "registered"; once every member
  of a view has registered it, advance ``act`` to it and prune ``amb``
  (garbage collection).

The per-view clauses are the automaton's own (:mod:`repro.dvs.rules`).
Buffering differences are only about *when* queued work happens (the
automaton defers via explicit queues and scheduler choice; the layer acts
at message-arrival time); the externally visible behaviour is checked
against the same DVS trace properties and, input for input, against the
automaton (``tests/gcs/test_dvs_differential.py``).
"""

from repro.core.messages import InfoMsg, RegisteredMsg
from repro.core.viewids import vid_gt
from repro.dvs import rules
from repro.dvs.vs_to_dvs import AckMsg
from repro.gcs.recorder import RecorderMixin
from repro.gcs.vs_stack import VsListener


class DvsListener:
    """Upcall interface for users of the DVS layer."""

    def on_dvs_newview(self, view):
        """A new *primary* view was attempted at this process."""

    def on_dvs_gprcv(self, payload, sender):
        """A client payload was delivered in the current primary view."""

    def on_dvs_safe(self, payload, sender):
        """The payload is delivered at every member of the primary view."""

    #: Whether this listener reads ``on_dvs_safe`` for the payload it was
    #: last handed.  Declared, not detected (tracers patch the upcall):
    #: DVS publishes its count only for deliveries a reader wants.
    wants_dvs_safe = True


class DvsLayer(VsListener, RecorderMixin):
    """One process's dynamic-primary filter, over a VS stack node."""

    def __init__(self, stack, initial_view, listener=None, recorder=None,
                 member=None):
        self.stack = stack
        self.pid = stack.pid
        self.listener = listener or DvsListener()
        self.recorder = recorder
        stack.listener = self

        # ``member=False`` builds a fresh joiner: no current primary even
        # if the pid appears in ``initial_view`` (amnesiac restart).
        is_member = (
            self.pid in initial_view.set if member is None else member
        )
        self.cur = initial_view if is_member else None
        self.client_cur = initial_view if is_member else None
        self.act = initial_view
        self.amb = set()
        self.registered_ids = {initial_view.id} if is_member else set()
        # Per current view bookkeeping (reset on every VS view).
        self.info_rcvd = {}
        self.rcvd_rgst = set()
        self.pending_deliveries = []
        self.attempted_current = is_member
        # Repaired safe rule (see repro.dvs.vs_to_dvs): acknowledgment
        # evidence of client-level delivery at every member.
        self.client_history = []
        self.acked = {}
        self.safe_ptr = 0
        # Count carried by our newest AckMsg; it is un-echoed (and so the
        # one ack we allow in flight) while ``acked[pid]`` is behind it.
        self.ack_sent = 0
        # History length at the last delivery whose reader wants
        # ``dvs_safe``: nothing beyond it needs publishing.
        self.ack_wanted = 0
        # Exact payload types :meth:`on_vs_gprcv` has found to be client
        # payloads, so the next one of each skips the control-type tests.
        self._client_kinds = set()

    # -- DVS downcalls ---------------------------------------------------------------

    def gpsnd(self, payload):
        """Multicast a client payload within the current primary view."""
        client_cur, cur = self.client_cur, self.cur
        if client_cur is None:
            return
        if self.recorder is not None:
            self._record("dvs_gpsnd", payload, self.pid)
        if cur is not None and (client_cur is cur or client_cur.id == cur.id):
            self.stack.gpsnd(payload)
        # Otherwise the payload is addressed to a view VS has already
        # abandoned; like the automaton's stranded msgs-to-vs queue, it is
        # never delivered.

    def register(self):
        """The application has gathered all state it needs in this view."""
        if self.client_cur is None:
            return
        if self.client_cur.id in self.registered_ids:
            return
        self.registered_ids.add(self.client_cur.id)
        self._record("dvs_register", self.pid)
        self._probe("dvs_register_view", self.client_cur.id, self.pid)
        if self.cur is not None and self.client_cur.id == self.cur.id:
            self.stack.gpsnd(RegisteredMsg())

    # -- VS upcalls ----------------------------------------------------------------------

    def on_vs_newview(self, view):
        self.cur = view
        self.info_rcvd = {}
        self.rcvd_rgst = set()
        self.pending_deliveries = []
        self.attempted_current = False
        self.client_history = []
        self.acked = {}
        self.safe_ptr = 0
        self.ack_sent = 0
        self.ack_wanted = 0
        self.stack.gpsnd(InfoMsg(self.act, frozenset(self.amb)))
        # A VS view can already be attemptable when it needs no peers'
        # info (the info check only covers *other* members, and our own
        # info is reflected back through VS anyway).
        self._maybe_attempt()

    def on_vs_gprcv(self, payload, sender):
        if type(payload) in self._client_kinds:
            self._on_client_payload(payload, sender)
        elif isinstance(payload, InfoMsg):
            self._on_info(payload, sender)
        elif isinstance(payload, RegisteredMsg):
            self._on_registered(sender)
        elif isinstance(payload, AckMsg):
            self._on_ack(payload, sender)
        else:
            self._client_kinds.add(type(payload))
            self._on_client_payload(payload, sender)

    def on_vs_batch_end(self):
        """VS delivered every position of a frame: acknowledge them all
        at once (:meth:`_send_ack`).  gcsbench brackets no such method,
        so the ack's own time counts in its ``vs`` span."""
        self._send_ack()

    def on_vs_safe(self, payload, sender):
        """A no-op that nothing calls: the VS stack below reports no
        stability.  Kept only because gcsbench brackets this method by
        name.

        VS-SAFE would only prove delivery to every member's *filter*; the
        DVS safe indication promises delivery to every member's
        *client*, so this layer derives it from acknowledgments instead
        (the repaired rule of :mod:`repro.dvs.vs_to_dvs`).
        """

    # -- Internals ----------------------------------------------------------------------------

    def _on_info(self, info, sender):
        self.info_rcvd[sender] = info
        rules.absorb_info(self, info)
        self._maybe_attempt()

    def _view_acceptable(self, view):
        """The quorum clause of the DVS-NEWVIEW precondition: the view must
        majority-intersect every possibly-active earlier primary.  Ablated
        variants (:mod:`repro.dvs.ablation`) override this."""
        return rules.majority_of_use(self, view)

    def _maybe_attempt(self):
        """The DVS-NEWVIEW precondition of Figure 3, applied eagerly."""
        view = self.cur
        if view is None or self.attempted_current:
            return
        client_id = None if self.client_cur is None else self.client_cur.id
        if not vid_gt(view.id, client_id):
            return
        if not rules.heard_from_all(
            view, self.pid, self.info_rcvd.__contains__
        ) or not self._view_acceptable(view):
            return
        self.amb.add(view)
        self.client_cur = view
        self.attempted_current = True
        self._record("dvs_newview", view, self.pid)
        self.listener.on_dvs_newview(view)
        buffered = self.pending_deliveries
        self.pending_deliveries = []
        for payload, sender in buffered:
            self._deliver_to_client(payload, sender)

    def _on_registered(self, sender):
        self.rcvd_rgst.add(sender)
        view = self.cur
        if view is None:
            return
        if rules.totally_registered(
            self, view, self.rcvd_rgst.__contains__
        ):
            rules.garbage_collect(self, view)

    def _on_client_payload(self, payload, sender):
        if self.attempted_current:
            self._deliver_to_client(payload, sender)
        else:
            self.pending_deliveries.append((payload, sender))

    def _deliver_to_client(self, payload, sender):
        if self.recorder is not None:
            self._record("dvs_gprcv", payload, sender, self.pid)
        listener = self.listener
        listener.on_dvs_gprcv(payload, sender)
        history = self.client_history
        history.append((payload, sender))
        if listener.wants_dvs_safe:
            self.ack_wanted = len(history)

    def _send_ack(self):
        """Acknowledge every client delivery so far, if a reader wants one
        of them reported safe and no ack of ours is still un-echoed.
        Called once per VS frame, after its last delivery: counts are
        cumulative and receivers keep the maximum, so the frame that
        carries our echo ends with the next ack, covering the whole
        frame (self-clocked by the sequencer round trip -- one ack per
        frame under light load, coalesced under load, no timer).  A
        count means "k client deliveries", wanted or not."""
        cur, client_cur = self.cur, self.client_cur
        if (
            self.ack_wanted > self.ack_sent == self.acked.get(self.pid, 0)
            and cur is not None and client_cur is not None
            and (client_cur is cur or client_cur.id == cur.id)
        ):
            self.ack_sent = len(self.client_history)
            self.stack.gpsnd(AckMsg(self.ack_sent))

    def _on_ack(self, ack, sender):
        if ack.count > self.acked.get(sender, 0):
            self.acked[sender] = ack.count
        self._release_safe()

    def _release_safe(self):
        view, cur = self.client_cur, self.cur
        if view is None or cur is None or (
            view is not cur and view.id != cur.id
        ):
            return
        history, acked = self.client_history, self.acked
        stable = len(history)
        for member in view.set:
            count = acked.get(member, 0)
            if count < stable:
                stable = count
        recorder, listener = self.recorder, self.listener
        while self.safe_ptr < stable:
            payload, sender = history[self.safe_ptr]
            self.safe_ptr += 1
            if recorder is not None:
                self._record("dvs_safe", payload, sender, self.pid)
            listener.on_dvs_safe(payload, sender)
