"""CB: the causally-ordered broadcast service specification.

Like TO (:mod:`repro.to.spec`), CB is *not* group-oriented: clients
broadcast payloads and receive payloads.  The guarantee is weaker than
TO's single system-wide order -- each client may receive messages in any
order consistent with *causal precedence* (Lamport's happened-before
restricted to broadcast events), with integrity and no duplication, and
with per-sender gap-free FIFO (a special case of causality: a sender's
earlier broadcast causally precedes its later ones).

Signature::

    Input:    CBCAST(a)_p         cbcast(a, p)
    Output:   CB-BRCV(a)_{q,p}    cb_brcv(a, q, p)   (a from q, at p)

State: ``sent[q]`` (the sequence of payloads broadcast by q, giving
every broadcast the id ``(q, k)``), ``past[(q, k)]`` (the ids causally
preceding broadcast ``(q, k)``: everything q had delivered or itself
broadcast before it), ``knowledge[p]`` (the ids process p has delivered
or broadcast so far) and the per-sender delivery pointer
``next[p][q]``.  A delivery is enabled exactly when it is the next
broadcast from its sender *and* its whole causal past has been
delivered at the receiver -- there is no global order variable and no
``to_order`` internal step: causal order needs no sequencer.
"""

from repro.ioa.acceptor import accept
from repro.ioa.action import act
from repro.ioa.automaton import TransitionAutomaton
from repro.ioa.state import State


class CBState(State):
    """State of the CB specification."""

    def __init__(self, universe):
        procs = sorted(universe)
        super().__init__(
            sent={p: [] for p in procs},
            past={},
            knowledge={p: set() for p in procs},
            next={p: {q: 0 for q in procs} for p in procs},
        )


def _delivered_ids(state, p):
    """The broadcast ids process ``p`` has delivered."""
    return {
        (q, k)
        for q, pointer in state.next[p].items()
        for k in range(pointer)
    }


class CBSpec(TransitionAutomaton):
    """The CB service automaton."""

    name = "cb"

    inputs = frozenset({"cbcast"})
    outputs = frozenset({"cb_brcv"})
    internals = frozenset()

    def __init__(self, universe):
        self.universe = frozenset(universe)

    def initial_state(self):
        return CBState(self.universe)

    # -- CBCAST(a)_p (input) ---------------------------------------------------

    def eff_cbcast(self, state, a, p):
        k = len(state.sent[p])
        state.past[(p, k)] = frozenset(state.knowledge[p])
        state.sent[p].append(a)
        state.knowledge[p].add((p, k))

    # -- CB-BRCV(a)_{q,p} ------------------------------------------------------

    def pre_cb_brcv(self, state, a, q, p):
        k = state.next[p][q]
        return (
            k < len(state.sent[q])
            and state.sent[q][k] == a
            and state.past[(q, k)] <= _delivered_ids(state, p)
        )

    def eff_cb_brcv(self, state, a, q, p):
        k = state.next[p][q]
        state.knowledge[p].add((q, k))
        state.next[p][q] = k + 1

    def cand_cb_brcv(self, state):
        for p in sorted(self.universe):
            delivered = _delivered_ids(state, p)
            for q in sorted(self.universe):
                k = state.next[p][q]
                if k < len(state.sent[q]) and state.past[(q, k)] <= delivered:
                    yield act("cb_brcv", state.sent[q][k], q, p)


def accept_cb(trace, initial_view=None):
    """Walk ``trace`` through CB (no internal step: nothing forced)."""
    heard = [a for a in trace if a.name in ("cbcast", "cb_brcv")]
    return accept(CBSpec({x for a in heard for x in a.params[1:]}), trace)
