"""Exception taxonomy for the I/O automaton framework."""


class IOAError(Exception):
    """Base class for all framework errors."""


class UnknownAction(IOAError):
    """An action was applied to an automaton whose signature lacks it."""


class ActionNotEnabled(IOAError):
    """A locally controlled action was applied while its precondition is false.

    In the I/O automaton model input actions are always enabled; output and
    internal actions may only be performed when their precondition holds.
    Applying a disabled action is a bug in the driver (scheduler, adversary,
    or refinement search), so it is an error rather than a no-op.
    """


class MalformedAutomaton(IOAError, TypeError):
    """A :class:`~repro.ioa.automaton.TransitionAutomaton` subclass breaks
    the precondition/effect contract; raised when the class is defined."""


class CompositionError(IOAError):
    """The components of a composition are not compatible.

    Compatibility in the Lynch-Tuttle sense: no action is an output of two
    components, and internal actions of one component do not appear in the
    signature of another.
    """


class InvariantViolation(IOAError):
    """A state reached by an execution falsifies a stated invariant."""

    def __init__(self, invariant_name, state, message=""):
        self.invariant_name = invariant_name
        self.state = state
        detail = " -- {0}".format(message) if message else ""
        super().__init__(
            "invariant {0!r} violated{1}".format(invariant_name, detail)
        )


class RefinementFailure(IOAError):
    """No abstract execution fragment matches a concrete step.

    Raised by :class:`repro.ioa.refinement.RefinementChecker` when the
    step-correspondence search fails, i.e. when the candidate refinement
    mapping is *not* a single-valued simulation for the observed step.
    """

    def __init__(self, step, abstract_from, abstract_to, message=""):
        self.step = step
        self.abstract_from = abstract_from
        self.abstract_to = abstract_to
        detail = " -- {0}".format(message) if message else ""
        super().__init__(
            "no abstract fragment matches step {0}{1}".format(
                step.action, detail
            )
        )
