"""TO: the totally-ordered broadcast service specification (from [12]).

TO is *not* group-oriented: clients just broadcast payloads and receive
payloads, and the service guarantees that all clients receive messages
according to one system-wide total order, each client seeing a gap-free
prefix of it, with integrity (only broadcast messages are delivered, with
correct attribution) and no duplication.

Signature::

    Input:    BCAST(a)_p          bcast(a, p)
    Output:   BRCV(a)_{q,p}       brcv(a, q, p)      (a from q, at p)
    Internal: TO-ORDER(a, p)      to_order(a, p)

State: ``pending[p]`` (a sequence of payloads), the global ``order`` (a
sequence of ``(a, p)`` pairs) and a delivery pointer ``next[p]`` per
process.  ``to_order`` moves *any* pending message into the global order --
the service does not promise per-sender FIFO into the total order, matching
what the recovery procedure of the implementation provides (a payload left
unordered across a partition may be sequenced after later payloads from
the same sender).
"""

from repro.core.sequences import nth
from repro.ioa.action import act
from repro.ioa.automaton import TransitionAutomaton
from repro.ioa.state import State


class TOState(State):
    """State of the TO specification."""

    def __init__(self, universe):
        super().__init__(
            pending={p: [] for p in sorted(universe)},
            order=[],
            next={p: 1 for p in sorted(universe)},
        )


class TOSpec(TransitionAutomaton):
    """The TO service automaton."""

    inputs = frozenset({"bcast"})
    outputs = frozenset({"brcv"})
    internals = frozenset({"to_order"})

    def __init__(self, universe, name="to"):
        self.name = name
        self.universe = frozenset(universe)

    def initial_state(self):
        return TOState(self.universe)

    def stats(self, state):
        pending = sum(len(payloads) for payloads in state.pending.values())
        return {"broadcasts": len(state.order) + pending,
                "deliveries": sum(n - 1 for n in state.next.values())}

    # -- BCAST(a)_p (input) ----------------------------------------------------

    def eff_bcast(self, state, a, p):
        state.pending[p].append(a)

    # -- TO-ORDER(a, p) -----------------------------------------------------------

    def pre_to_order(self, state, a, p):
        return a in state.pending[p]

    def eff_to_order(self, state, a, p):
        state.pending[p].remove(a)
        state.order.append((a, p))

    def cand_to_order(self, state):
        for p in sorted(self.universe):
            seen = set()
            for a in state.pending[p]:
                if a in seen:
                    continue
                seen.add(a)
                yield act("to_order", a, p)

    # -- BRCV(a)_{q,p} ---------------------------------------------------------------

    def pre_brcv(self, state, a, q, p):
        return nth(state.order, state.next[p]) == (a, q)

    def eff_brcv(self, state, a, q, p):
        state.next[p] += 1

    def cand_brcv(self, state):
        for p in sorted(self.universe):
            entry = nth(state.order, state.next[p])
            if entry is not None:
                a, q = entry
                yield act("brcv", a, q, p)
