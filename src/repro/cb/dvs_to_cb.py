"""``DVS-TO-CB_p``: causally ordered broadcast over DVS.

The causal analogue of ``DVS-TO-TO_p`` (Figure 5), with the sequencer
round-trip designed out.  Client payloads are buffered (``delay``),
timestamped with a view-scoped vector clock (``cb_label``), and
multicast through DVS.  A received cast goes into a hold-back queue and
is released -- *immediately at delivery, never waiting for a DVS safe
indication* -- once the BSS condition holds: it is the next cast from
its sender and its causal past (the clock it carries) has been
delivered here.

Recovery activity is trivial, which is the point: when DVS reports a
new view the clock is reset over the new membership, the hold-back
queue is dropped (casts of dead views can never satisfy a clock scoped
to the new one -- cross-view delivery is best-effort), and the process
registers at once.  There is no state to exchange because there is no
shared order to reconstruct; payloads still waiting in ``delay`` are
simply timestamped in the new view.

``history`` is a history variable (delivered ``(payload, origin)``
pairs per view); it appears only in the invariants.
"""

from repro.cb.clocks import advance, deliverable, put
from repro.cb.messages import CbCast
from repro.core.sequences import head, remove_head
from repro.core.tables import Table
from repro.core.viewids import G0
from repro.ioa.action import act
from repro.ioa.automaton import PerProcessAutomaton
from repro.ioa.state import State


class DvsToCbState(State):
    """State of ``DVS-TO-CB_p``."""

    def __init__(self, pid, initial_view):
        is_initial_member = pid in initial_view.set
        super().__init__(
            current=initial_view if is_initial_member else None,
            delivered=(),
            sent=0,
            delay=[],
            buffer=[],
            holdback=[],
            registered={G0} if is_initial_member else set(),
            history=Table(tuple),
        )


class DvsToCb(PerProcessAutomaton):
    """The ``DVS-TO-CB_p`` automaton for one process."""

    name_prefix = "dvs_to_cb"

    inputs = frozenset({"cbcast", "dvs_gprcv", "dvs_safe", "dvs_newview"})
    outputs = frozenset({"dvs_gpsnd", "dvs_register", "cb_brcv"})
    internals = frozenset({"cb_label"})

    def __init__(self, pid, initial_view):
        super().__init__(pid)
        self.initial_view = initial_view

    def initial_state(self):
        return DvsToCbState(self.pid, self.initial_view)

    # -- Client input and timestamping ----------------------------------------

    def eff_cbcast(self, state, a, p):
        state.delay.append(a)

    def pre_cb_label(self, state, a, p):
        return state.current is not None and head(state.delay) == a

    def eff_cb_label(self, state, a, p):
        state.sent += 1
        clock = put(state.delivered, self.pid, state.sent)
        state.buffer.append(
            CbCast(state.current.id, clock, a, self.pid)
        )
        remove_head(state.delay)

    def cand_cb_label(self, state):
        if state.current is None:
            return
        a = head(state.delay)
        if a is not None:
            yield act("cb_label", a, self.pid)

    # -- Multicast ------------------------------------------------------------

    def pre_dvs_gpsnd(self, state, m, p):
        return head(state.buffer) == m

    def eff_dvs_gpsnd(self, state, m, p):
        remove_head(state.buffer)

    def cand_dvs_gpsnd(self, state):
        m = head(state.buffer)
        if m is not None:
            yield act("dvs_gpsnd", m, self.pid)

    # -- Deliveries -----------------------------------------------------------

    def eff_dvs_gprcv(self, state, m, q, p):
        if (
            isinstance(m, CbCast)
            and state.current is not None
            and m.vid == state.current.id
        ):
            state.holdback.append(m)

    def eff_dvs_safe(self, state, m, q, p):
        # CB delivers at gprcv time; stability indications are unused.
        pass

    def pre_cb_brcv(self, state, a, q, p):
        return any(
            m.origin == q
            and m.payload == a
            and deliverable(m.clock, state.delivered, q)
            for m in state.holdback
        )

    def eff_cb_brcv(self, state, a, q, p):
        for index, m in enumerate(state.holdback):
            if (
                m.origin == q
                and m.payload == a
                and deliverable(m.clock, state.delivered, q)
            ):
                del state.holdback[index]
                state.delivered = advance(state.delivered, q)
                if state.current is not None:
                    vid = state.current.id
                    state.history[vid] = state.history.get(vid) + ((a, q),)
                return

    def cand_cb_brcv(self, state):
        for m in state.holdback:
            if deliverable(m.clock, state.delivered, m.origin):
                yield act("cb_brcv", m.payload, m.origin, self.pid)

    # -- Recovery -------------------------------------------------------------

    def eff_dvs_newview(self, state, v, p):
        state.current = v
        state.delivered = ()
        state.sent = 0
        state.buffer = []
        state.holdback = []

    def pre_dvs_register(self, state, p):
        return (
            state.current is not None
            and state.current.id not in state.registered
        )

    def eff_dvs_register(self, state, p):
        state.registered.add(state.current.id)

    def cand_dvs_register(self, state):
        if self.pre_dvs_register(state, self.pid):
            yield act("dvs_register", self.pid)
