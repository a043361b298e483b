"""Trace acceptance: the executable specification as the oracle.

The paper's results are trace inclusions (Theorems 5.9 and 6.4).  An
:class:`Acceptor` decides one instance an action at a time: it steps a
specification automaton *in place* (precondition, then effect, on one
state -- never ``apply``, which copies), skips actions outside the
spec's signature and rejects the first step the spec cannot take.
:func:`accept` loops it over a recorded trace; the online monitor
(:mod:`repro.faults.monitor`) steps it as the run goes.

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


class Acceptor:
    """One specification, stepped in place along a trace.

    ``spec`` is a :class:`~repro.ioa.automaton.TransitionAutomaton` whose
    signature is carved by action name; each name's ``pre_`` / ``eff_``
    is looked up once, here.  ``names`` are the actions a step acts on
    (the signature and the restart marker); any other action only
    advances ``index``, the next action's position in the trace.  After
    its first rejection an acceptor is spent: later steps return None.
    """

    def __init__(self, spec, forced=None, restart=None):
        self.spec = spec
        self.state = spec.initial_state()
        self.forced = forced
        self.restart = restart
        self.index = 0
        self.rejection = None
        # name -> (precondition, or None for an input; effect or None)
        self._steps = {
            name: (None if name in spec.inputs
                   else getattr(spec, "pre_" + name, None),
                   getattr(spec, "eff_" + name, None))
            for name in spec.inputs | spec.outputs | spec.internals
        }
        self.names = frozenset(self._steps) | {RESTART}

    def step(self, action, index=None):
        """Take ``action``; the :class:`Rejection` if the spec cannot.
        ``index`` is its position in the trace, for a caller that steps
        only the actions in ``names`` (default: the next position)."""
        if index is None:
            index = self.index
        self.index = index + 1
        if self.rejection is not None:
            return None
        if action.name not in self._steps:
            if action.name == RESTART and self.restart is not None:
                self.restart(self.state, *action.params)
            return None
        try:
            hidden = self.forced(self.state, action) if self.forced else ()
            for forced in tuple(hidden):
                if not self._take(forced):
                    return self._reject(index, action, (
                        "forces {0}, which is not enabled".format(forced)
                    ))
            if not self._take(action):
                return self._reject(index, action, "not enabled")
        except KeyError as missing:
            return self._reject(index, action, (
                "{0!r} is outside the spec's universe".format(missing.args[0])
            ))
        return None

    def _take(self, action):
        """Perform ``action`` if enabled; whether it was."""
        step = self._steps.get(action.name)
        if step is None:
            return False
        pre, eff = step
        if pre is not None and not pre(self.state, *action.params):
            return False
        if eff is not None:
            eff(self.state, *action.params)
        return True

    def _reject(self, index, action, reason):
        self.rejection = Rejection(self.spec.name, index, action, reason)
        return self.rejection


def accept(spec, trace, forced=None, restart=None):
    """Walk ``trace`` through ``spec``; return ``(state, rejection)``:
    the state reached, and ``None`` iff the trace (projected onto the
    spec's signature) is a trace of the spec."""
    acceptor = Acceptor(spec, forced, restart)
    for action in trace:
        if acceptor.step(action) is not None:
            break
    return acceptor.state, acceptor.rejection
