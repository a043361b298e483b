"""Trace acceptance: the executable specification as the oracle.

The paper's results are trace inclusions (Theorems 5.9 and 6.4).
:func:`accept` decides one instance: it walks a recorded trace through a
specification automaton *in place* (``is_enabled`` then ``transition``
on one state -- never ``apply``, which copies), skips actions outside
the spec's signature and stops at the first step the spec cannot take.

A trace hides internal steps, so the spec's owner names them:
``forced(state, action)`` yields the hidden steps this action forces now
(a first ``dvs_newview`` forces ``dvs_createview``); each is determined
by the trace, so the walk needs no search.  The paper's model lacks an
*amnesiac rejoin*; the convention, stated once: the host records
``restart(p)`` when it boots such an incarnation, and the owner's
``restart(state, p)`` resets what the spec keeps per incarnation.
"""

from dataclasses import dataclass

from repro.ioa.action import Action

#: Name of the marker action a host records at an amnesiac rejoin.
RESTART = "restart"


@dataclass(frozen=True)
class Rejection:
    """The first step of a trace its specification could not take."""

    spec: str
    index: int
    action: Action
    reason: str

    def __str__(self):
        return "{0} rejected at #{1} {2}: {3}".format(
            self.spec.upper(), self.index, self.action, self.reason
        )


def accept(spec, trace, forced=None, restart=None):
    """Walk ``trace`` through ``spec``; return ``(state, rejection)``:
    the state reached, and ``None`` iff the trace (projected onto the
    spec's signature) is a trace of the spec."""
    state = spec.initial_state()
    for index, action in enumerate(trace):
        if action.name == RESTART:
            if restart is not None:
                restart(state, *action.params)
            continue
        if spec.action_kind(action) is None:
            continue
        hidden = forced(state, action) if forced is not None else ()
        for step in (*hidden, action):
            if not spec.is_enabled(state, step):
                reason = "not enabled" if step is action else (
                    "forces {0}, which is not enabled".format(step)
                )
                return state, Rejection(spec.name, index, action, reason)
            spec.transition(state, step)
    return state, None
