"""Mechanized refinement (single-valued simulation) checking.

The paper proves Theorem 5.9 (DVS-IMPL implements DVS) by exhibiting a
function F from implementation states to specification states and showing
(Lemmas 5.7, 5.8) that

1. F maps initial states to initial states, and
2. for every step ``(s, pi, s')`` of the implementation there is an
   execution fragment ``alpha`` of the specification from ``F(s)`` to
   ``F(s')`` with ``trace(alpha) = trace(pi)``.

:class:`RefinementChecker` performs exactly this check, mechanically, along
concrete executions: the proof is constructive, so for each step it runs
the fragments the proof names (the caller's *hints*, e.g. ``CREATEVIEW(v)``
followed by ``NEWVIEW(v)_p``) and nothing else.  A step none of them
matches is a failure of the implementation, of F or of the proof's
fragment -- never something a search papers over.
"""

from repro.ioa.errors import ActionNotEnabled, RefinementFailure, UnknownAction


class RefinementChecker:
    """Check that ``mapping`` is a refinement from ``impl`` to ``spec``.

    Parameters
    ----------
    impl, spec:
        The implementation and specification automata.  ``spec`` is treated
        as open: its input actions are always enabled.
    mapping:
        Function from implementation states to specification states (the
        paper's F, Figure 4).
    hints:
        ``hints(step, abstract_state) -> iterable of action sequences``:
        the fragments the proof constructs for ``step``, each tried
        verbatim.
    """

    def __init__(self, impl, spec, mapping, hints):
        self.impl = impl
        self.spec = spec
        self.mapping = mapping
        self.hints = hints

    # -- Condition 1: initial states ---------------------------------------

    def check_initial(self, impl_initial=None):
        """F maps the implementation's initial state to spec's (Lemma 5.7)."""
        state = (
            impl_initial
            if impl_initial is not None
            else self.impl.initial_state()
        )
        abstract = self.mapping(state)
        expected = self.spec.initial_state()
        if abstract.fingerprint() != expected.fingerprint():
            raise RefinementFailure(
                _PseudoStep("initial"),
                abstract,
                expected,
                "F(initial) differs from the specification's initial state",
            )
        return abstract

    # -- Condition 2: step correspondence -----------------------------------

    def check_step(self, step):
        """The named spec fragment matching ``step`` (Lemma 5.8).

        The fragment is returned as the list of specification actions.
        Raises :class:`RefinementFailure` when none of the named ones
        leads from ``F(s)`` to ``F(s')`` with the step's trace.
        """
        abstract_from = self.mapping(step.state)
        abstract_to = self.mapping(step.next_state)
        required = (
            [step.action] if self.spec.action_kind(step.action) is not None
            and self.spec.is_external(step.action) else []
        )

        tried = []
        for candidate in self.hints(step, abstract_from):
            candidate = list(candidate)
            if self._fragment_matches(
                abstract_from, candidate, abstract_to, required
            ):
                return candidate
            tried.append(_show(candidate))
        raise RefinementFailure(
            step,
            abstract_from,
            abstract_to,
            "none of the named fragments {0} leads from F(s) to F(s') with "
            "trace {1}".format(", ".join(tried), _show(required)),
        )

    def check_execution(self, execution, on_step=None):
        """Check the whole execution; return total abstract actions used."""
        self.check_initial(execution.initial_state)
        total = 0
        for step in execution.steps:
            fragment = self.check_step(step)
            total += len(fragment)
            if on_step is not None:
                on_step(step, fragment)
        return total

    # -- Internals -----------------------------------------------------------

    def _fragment_matches(self, start, actions, goal, required):
        """Run ``actions`` from ``start``; succeed if every one is enabled,
        the result equals ``goal`` and the external projection equals
        ``required``."""
        state = start
        try:
            for action in actions:
                state = self.spec.apply(state, action)
        except (ActionNotEnabled, UnknownAction):
            return False
        externals = [a for a in actions if self.spec.is_external(a)]
        return (
            externals == required
            and state.fingerprint() == goal.fingerprint()
        )


def _show(actions):
    return "[{0}]".format(", ".join(str(a) for a in actions))


class _PseudoStep:
    """Stand-in step for initial-state failures."""

    def __init__(self, label):
        self.action = label
        self.state = None
        self.next_state = None
