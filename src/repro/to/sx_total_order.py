"""Totally ordered broadcast over SX-DVS: Figure 5 without the recovery
state machine.

With the state exchange run by the service (:mod:`repro.dvs.state_exchange`),
the application no longer needs ``status``/``gotstate``/``safe-exch``:

- on a new view it hands the service its summary (``sx_sendstate``);
- the service returns everyone's summaries in one ``sx_statedelivery``,
  which is the establishment step (adopt ``fullorder``, resume labelling);
- ``sx_statesafe`` tells it the exchange is safe everywhere, making the
  exchanged labels confirmable.

Comparing this automaton with :class:`repro.to.dvs_to_to.DvsToTo` is the
Section 7 exercise the paper proposes: the application shrinks by a full
protocol phase, at the cost of a richer service interface.
"""

from repro.core.sequences import head, remove_head
from repro.ioa.action import act
from repro.to.summaries import fullorder, maxnextconfirm
from repro.to.to_core import ToCore, ToCoreState


class SxToState(ToCoreState):
    """Figure 5's state minus ``status``, ``gotstate`` and ``safe-exch``."""

    def __init__(self, pid, initial_view):
        is_member = pid in initial_view.set
        super().__init__(
            pid, initial_view,
            established_current=is_member,
            sent_state=is_member,  # v0 needs no exchange
            exchanged_labels=set(),
            pending_content=[],
        )


class SxTotalOrder(ToCore):
    """One process of the simplified TO algorithm over SX-DVS.

    Labelling, confirmation and release are inherited from
    :class:`~repro.to.to_core.ToCore`, shared with Figure 5."""

    name_prefix = "sx_to"

    inputs = frozenset(
        {"bcast", "dvs_gprcv", "dvs_safe", "dvs_newview",
         "sx_statedelivery", "sx_statesafe"}
    )
    outputs = frozenset({"dvs_gpsnd", "sx_sendstate", "brcv"})
    internals = frozenset({"label", "confirm"})

    def initial_state(self):
        return SxToState(self.pid, self.initial_view)

    # -- Normal multicast ----------------------------------------------------------

    def pre_dvs_gpsnd(self, state, m, p):
        label, payload = m
        return (
            state.established_current
            and head(state.buffer) == label
            and (label, payload) in state.content
        )

    def eff_dvs_gpsnd(self, state, m, p):
        remove_head(state.buffer)

    def cand_dvs_gpsnd(self, state):
        if not state.established_current:
            return
        label = head(state.buffer)
        if label is not None:
            payload = self._content_lookup(state, label)
            if payload is not None:
                yield act("dvs_gpsnd", (label, payload), self.pid)

    # -- Deliveries ----------------------------------------------------------------------

    def eff_dvs_gprcv(self, state, m, q, p):
        """Order received content -- but only once this view is established.

        Unlike Figure 5, establishment here (``sx_statedelivery``) is an
        independent service output and is *not* ordered before the view's
        content messages, so content arriving first must be buffered: a
        direct append would be wiped (and re-sequenced differently) when
        establishment adopts ``fullorder``.
        """
        label, payload = m
        state.content.add((label, payload))
        if not state.established_current:
            state.pending_content.append(label)
            return
        if label not in state.order:
            state.order.append(label)
            self._snapshot_order(state)

    def eff_dvs_safe(self, state, m, q, p):
        label, _ = m
        state.safe_labels.add(label)

    # -- Recovery: three inputs/outputs instead of a state machine ------------------------------

    def eff_dvs_newview(self, state, v, p):
        state.current = v
        state.established_current = False
        state.sent_state = False
        state.nextseqno = 1
        state.buffer = []
        state.safe_labels = set()
        state.exchanged_labels = set()
        state.pending_content = []

    def pre_sx_sendstate(self, state, x, p):
        return (
            state.current is not None
            and not state.sent_state
            and x == self._summary(state)
        )

    def eff_sx_sendstate(self, state, x, p):
        state.sent_state = True

    def cand_sx_sendstate(self, state):
        if state.current is not None and not state.sent_state:
            yield act("sx_sendstate", self._summary(state), self.pid)

    def eff_sx_statedelivery(self, state, bundle, p):
        """Establishment, in one input: adopt the bundle's fullorder."""
        gotstate = dict(bundle)
        if not gotstate or state.current is None:
            return
        for summary in gotstate.values():
            state.content |= set(summary.con)
        state.nextconfirm = maxnextconfirm(gotstate)
        state.order = list(fullorder(gotstate))
        state.exchanged_labels = set(state.order)
        state.highprimary = state.current.id
        state.established_current = True
        state.established[state.current.id] = True
        # Sequence the content that arrived before establishment, in
        # arrival order, after the exchanged prefix.
        for label in state.pending_content:
            if label not in state.order:
                state.order.append(label)
        state.pending_content = []
        self._snapshot_order(state)

    def eff_sx_statesafe(self, state, p):
        state.safe_labels |= state.exchanged_labels
