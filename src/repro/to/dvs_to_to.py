"""``DVS-TO-TO_p``: totally ordered broadcast over DVS (Figure 5).

Normal activity: client payloads are buffered (``delay``), given
system-wide unique labels, and multicast through DVS.  Deliveries append
labels to the tentative ``order``; DVS safe indications mark labels safe;
a label at the confirmation frontier whose message is safe may be
*confirmed*, and confirmed messages are released to clients in order.

Recovery activity: when DVS reports a new primary view, each member
multicasts a summary of its state; once a member holds all members'
summaries it *establishes* the view in one atomic step (adopting
``fullorder`` of the collected summaries), then tells DVS with
DVS-REGISTER.  When the state exchange is safe, all exchanged labels
become safe and confirmation resumes.

Differences from the static algorithm of [12] (Section 6.1): no local
primary test and no gossiping in non-primary views (DVS only reports
primaries); the DVS-REGISTER output; and the ``delay`` buffer for payloads
arriving before the node has any view.

``buildorder`` is a history variable (from the proof in [13]): the last
value of ``order`` while this node was in each view.  It appears in
Invariant 6.3 only.
"""

from repro.core.sequences import head, remove_head
from repro.core.viewids import G0
from repro.ioa.action import act
from repro.to.summaries import Summary, fullorder, maxnextconfirm
from repro.to.to_core import ToCore, ToCoreState

NORMAL = "normal"
SEND = "send"
COLLECT = "collect"


class DvsToToState(ToCoreState):
    """State of ``DVS-TO-TO_p``, named as in Figure 5."""

    def __init__(self, pid, initial_view):
        super().__init__(
            pid, initial_view,
            status=NORMAL,
            gotstate={},
            safe_exch=set(),
            registered={G0} if pid in initial_view.set else set(),
        )


class DvsToTo(ToCore):
    """The ``DVS-TO-TO_p`` automaton for one process (Figure 5).

    Labelling, confirmation and release are inherited from
    :class:`~repro.to.to_core.ToCore`; this class adds the multicast,
    delivery and recovery handlers."""

    name_prefix = "dvs_to_to"

    inputs = frozenset(
        {"bcast", "dvs_gprcv", "dvs_safe", "dvs_newview"}
    )
    outputs = frozenset({"dvs_gpsnd", "dvs_register", "brcv"})
    internals = frozenset({"label", "confirm"})

    def initial_state(self):
        return DvsToToState(self.pid, self.initial_view)

    # -- Normal multicast ---------------------------------------------------------------

    def pre_dvs_gpsnd(self, state, m, p):
        if isinstance(m, Summary):
            return (
                state.status == SEND and m == self._summary(state)
            )
        label, payload = m
        return (
            state.status == NORMAL
            and head(state.buffer) == label
            and (label, payload) in state.content
        )

    def eff_dvs_gpsnd(self, state, m, p):
        if isinstance(m, Summary):
            state.status = COLLECT
        else:
            remove_head(state.buffer)

    def cand_dvs_gpsnd(self, state):
        if state.status == SEND:
            yield act("dvs_gpsnd", self._summary(state), self.pid)
            return
        if state.status != NORMAL:
            return
        label = head(state.buffer)
        if label is not None:
            payload = self._content_lookup(state, label)
            if payload is not None:
                yield act("dvs_gpsnd", (label, payload), self.pid)

    # -- Deliveries -----------------------------------------------------------------------

    def eff_dvs_gprcv(self, state, m, q, p):
        if isinstance(m, Summary):
            self._receive_summary(state, m, q)
        else:
            label, payload = m
            state.content.add((label, payload))
            # The label may already be in the tentative order: a payload
            # labelled during recovery (before this view was established)
            # rides in the state-exchange summaries and is ordered by
            # fullorder at establishment, and its direct multicast arrives
            # afterwards.  Ordering it twice would corrupt the total order
            # (a message would be confirmed and released twice), so a label
            # enters the order at most once.
            if label not in state.order:
                state.order.append(label)
                self._snapshot_order(state)

    def eff_dvs_safe(self, state, m, q, p):
        if isinstance(m, Summary):
            state.safe_exch.add(q)
            if (
                state.current is not None
                and state.safe_exch == set(state.current.set)
                and set(state.gotstate) == set(state.current.set)
            ):
                state.safe_labels |= set(fullorder(state.gotstate))
        else:
            label, _ = m
            state.safe_labels.add(label)

    # -- Recovery -------------------------------------------------------------------------------

    def eff_dvs_newview(self, state, v, p):
        state.current = v
        state.nextseqno = 1
        state.buffer = []
        state.gotstate = {}
        state.safe_exch = set()
        state.safe_labels = set()
        state.status = SEND

    def _receive_summary(self, state, summary, q):
        state.content |= set(summary.con)
        state.gotstate = dict(state.gotstate)
        state.gotstate[q] = summary
        if (
            state.current is not None
            and set(state.gotstate) == set(state.current.set)
            and state.status == COLLECT
        ):
            state.nextconfirm = maxnextconfirm(state.gotstate)
            state.order = list(fullorder(state.gotstate))
            state.highprimary = state.current.id
            state.status = NORMAL
            state.established[state.current.id] = True
            self._snapshot_order(state)

    def pre_dvs_register(self, state, p):
        return (
            state.current is not None
            and state.established.get(state.current.id)
            and state.current.id not in state.registered
        )

    def eff_dvs_register(self, state, p):
        state.registered.add(state.current.id)

    def cand_dvs_register(self, state):
        if self.pre_dvs_register(state, self.pid):
            yield act("dvs_register", self.pid)
