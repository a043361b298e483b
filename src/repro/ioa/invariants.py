"""Invariant checking along executions.

An invariant is a predicate on states.  The paper states its invariants
(3.1, 4.1, 4.2, 5.1-5.6, 6.1-6.3) over all reachable states; we check them
on every state of every generated execution and on every state visited by
the bounded explorer.  Predicates may either return a boolean or raise
``AssertionError`` with a diagnostic message.
"""

from repro.ioa.errors import InvariantViolation


def lift(view, processes, predicate):
    """Lift ``predicate``, stated on ``view(composition_state, processes)``
    (a named view such as :class:`repro.dvs.impl.DvsImplState`), to an
    invariant on the composition states themselves."""

    def check(composition_state):
        return predicate(view(composition_state, processes))

    check.__doc__ = predicate.__doc__
    check.__name__ = predicate.__name__
    return check


class InvariantSuite:
    """A named collection of state predicates, checkable as a unit."""

    def __init__(self, invariants=None):
        self._invariants = dict(invariants or {})

    def items(self):
        return sorted(self._invariants.items())

    def check_state(self, state):
        """Check every invariant on ``state``; raise on the first failure."""
        for name, predicate in self.items():
            try:
                ok = predicate(state)
            except AssertionError as exc:
                raise InvariantViolation(name, state, str(exc)) from exc
            if ok is False:
                raise InvariantViolation(name, state)

    def check_execution(self, execution):
        """Check every state of ``execution``; return the number checked."""
        count = 0
        for state in execution.states():
            self.check_state(state)
            count += 1
        return count

