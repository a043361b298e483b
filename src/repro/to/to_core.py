"""The part of Figure 5 that does not depend on who runs recovery.

Buffering client payloads (``delay``), labelling them, confirming safe
labels at the frontier of ``order`` and releasing confirmed messages
are the same in ``DVS-TO-TO_p`` (:mod:`repro.to.dvs_to_to`) and in its
Section 7 variant over SX-DVS (:mod:`repro.to.sx_total_order`), which
the paper describes as the former minus ``status``/``gotstate``/
``safe-exch``.  Both inherit this automaton and add only their own
multicast, delivery and recovery handlers, state and signature.
"""

from repro.core.sequences import head, nth, remove_head
from repro.core.tables import Table
from repro.core.viewids import G0
from repro.ioa.action import act
from repro.ioa.automaton import PerProcessAutomaton
from repro.ioa.state import State
from repro.to.summaries import Label, Summary


class ToCoreState(State):
    """The variables of Figure 5 both variants keep, named as there;
    ``recovery`` holds the ones only one of them has."""

    def __init__(self, pid, initial_view, **recovery):
        super().__init__(
            current=initial_view if pid in initial_view.set else None,
            content=set(),
            nextseqno=1,
            buffer=[],
            safe_labels=set(),
            order=[],
            nextconfirm=1,
            nextreport=1,
            highprimary=G0,
            delay=[],
            established=Table(lambda: False),
            buildorder=Table(tuple),
            **recovery
        )


class ToCore(PerProcessAutomaton):
    """Labelling, confirmation and release for one process.

    Subclasses supply ``name_prefix``, ``initial_state`` (a
    :class:`ToCoreState`) and the full signature.
    """

    inputs = frozenset({"bcast"})
    outputs = frozenset({"brcv"})
    internals = frozenset({"label", "confirm"})

    def __init__(self, pid, initial_view):
        super().__init__(pid)
        self.initial_view = initial_view

    # -- History bookkeeping --------------------------------------------------

    def _snapshot_order(self, state):
        """Record ``order`` into the per-view history variable."""
        if state.current is not None:
            state.buildorder[state.current.id] = tuple(state.order)

    def _summary(self, state):
        return Summary(
            con=frozenset(state.content),
            ord=tuple(state.order),
            next=state.nextconfirm,
            high=state.highprimary,
        )

    # -- Client input and labelling -------------------------------------------

    def eff_bcast(self, state, a, p):
        state.delay.append(a)

    def pre_label(self, state, a, p):
        return state.current is not None and head(state.delay) == a

    def eff_label(self, state, a, p):
        label = Label(state.current.id, state.nextseqno, self.pid)
        state.content.add((label, a))
        state.buffer.append(label)
        state.nextseqno += 1
        remove_head(state.delay)

    def cand_label(self, state):
        if state.current is None:
            return
        a = head(state.delay)
        if a is not None:
            yield act("label", a, self.pid)

    def _content_lookup(self, state, label):
        for entry_label, payload in state.content:
            if entry_label == label:
                return payload
        return None

    # -- Confirmation and release to the client -------------------------------

    def pre_confirm(self, state, p):
        entry = nth(state.order, state.nextconfirm)
        return entry is not None and entry in state.safe_labels

    def eff_confirm(self, state, p):
        state.nextconfirm += 1

    def cand_confirm(self, state):
        if self.pre_confirm(state, self.pid):
            yield act("confirm", self.pid)

    def pre_brcv(self, state, a, q, p):
        if state.nextreport >= state.nextconfirm:
            return False
        label = nth(state.order, state.nextreport)
        return (
            label is not None
            and (label, a) in state.content
            and q == label.origin
        )

    def eff_brcv(self, state, a, q, p):
        state.nextreport += 1

    def cand_brcv(self, state):
        if state.nextreport >= state.nextconfirm:
            return
        label = nth(state.order, state.nextreport)
        if label is None:
            return
        payload = self._content_lookup(state, label)
        if payload is not None:
            yield act("brcv", payload, label.origin, self.pid)
