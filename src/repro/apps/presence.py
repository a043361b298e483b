"""A presence / typing-indicator board over causal broadcast.

The companion application to :class:`~repro.apps.kv_store.KvReplica`,
demonstrating why a *weaker* ordering tier earns its keep: presence
updates ("online", "away", "typing...") need per-sender FIFO and causal
consistency -- nobody should see you stop typing before they saw you
start -- but no system-wide total order, so they ride the CB tier and
skip the sequencer's safe round-trip the KV commands pay for.

Convergence argument: CB delivers each member's casts in their send
order (per-sender gap-free sequence numbers within a view), so the
board's per-member last-writer-wins register settles on every replica
at that member's newest update; cross-member entries are independent,
so no stronger order is needed.  Casts in flight across a view change
are best-effort by design -- a fresh announcement after the view
settles (the natural thing for presence) repairs the board.
"""

from repro.gcs.cb_layer import CbListener


class PresenceBoard(CbListener):
    """One replica of the shared presence board, over a CB layer.

    Works with any object exposing the CB surface -- a simulated
    :class:`~repro.gcs.cb_layer.CbLayer` or the identical layer hosted
    by a :class:`~repro.runtime.node.RuntimeNode` (``node.cb``).
    """

    def __init__(self, cb_layer):
        self.cb = cb_layer
        self.pid = cb_layer.pid
        cb_layer.listener = self
        #: member -> last announced status (last-writer-wins per member).
        self._status = {}
        #: members whose latest typing indicator is "active".
        self._typing = set()
        #: Every applied update, in local delivery order:
        #: ``(kind, value, origin)``.
        self.events = []

    # -- Downcalls ---------------------------------------------------------

    def announce(self, status):
        """Broadcast this member's presence status (e.g. ``"online"``)."""
        self.cb.cbcast(("presence", status))

    def typing(self, active=True):
        """Broadcast a typing indicator flip."""
        self.cb.cbcast(("typing", bool(active)))

    # -- CB upcall ---------------------------------------------------------

    def on_cb_brcv(self, payload, origin):
        kind, value = payload
        if kind == "presence":
            self._status[origin] = value
        elif kind == "typing":
            if value:
                self._typing.add(origin)
            else:
                self._typing.discard(origin)
        else:
            raise ValueError("unknown presence update {0!r}".format(payload))
        self.events.append((kind, value, origin))

    # -- Local reads -------------------------------------------------------

    def board(self):
        """Snapshot of the per-member status register."""
        return dict(self._status)

    def status_of(self, member, default=None):
        return self._status.get(member, default)

    def typing_now(self):
        """Members whose newest typing indicator is active, sorted."""
        return sorted(self._typing)
