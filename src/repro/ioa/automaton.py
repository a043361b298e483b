"""The I/O automaton base classes.

Two levels are provided:

- :class:`Automaton`: the abstract interface -- a signature, an initial
  state, an enabling predicate, a transition function and an enumerator of
  locally controlled candidate actions.
- :class:`TransitionAutomaton`: a convenience base that dispatches actions
  by name to ``pre_<name>`` / ``eff_<name>`` methods and enumerates
  candidates from ``cand_<name>`` generators, mirroring the
  precondition/effect style of the paper's figures.
- :class:`PerProcessAutomaton`: a transition automaton indexed by a
  process, owning exactly the actions subscripted with that process.
"""

from abc import ABC, abstractmethod

from repro.ioa.action import Kind
from repro.ioa.errors import (
    ActionNotEnabled,
    MalformedAutomaton,
    UnknownAction,
)


class Automaton(ABC):
    """An I/O automaton without fairness (as in the paper, Section 2)."""

    #: Human-readable name, used in composition and error messages.
    name = "automaton"

    @abstractmethod
    def initial_state(self):
        """Return the (unique) initial state."""

    @abstractmethod
    def action_kind(self, action):
        """Classify ``action``: a :class:`Kind`, or ``None`` if not in the
        signature."""

    @abstractmethod
    def is_enabled(self, state, action):
        """Whether ``action`` may be performed from ``state``.

        Input actions are always enabled (input-enabledness); output and
        internal actions are enabled iff their precondition holds.
        """

    @abstractmethod
    def transition(self, state, action):
        """Mutate ``state`` in place according to the effect of ``action``.

        Callers normally use :meth:`apply`, which copies first.
        """

    @abstractmethod
    def controlled_candidates(self, state):
        """Yield locally controlled (output/internal) actions that are
        enabled in ``state``.

        The enumeration must be complete enough for the intended analyses:
        every action the analyses need to explore must eventually be
        yielded.  Enumerations may over-approximate; callers re-check
        :meth:`is_enabled`.
        """

    # -- Derived helpers ---------------------------------------------------

    def apply(self, state, action):
        """Return the state after performing ``action`` from ``state``.

        Raises :class:`UnknownAction` if the action is not in the signature
        and :class:`ActionNotEnabled` if a locally controlled action's
        precondition fails.
        """
        kind = self.action_kind(action)
        if kind is None:
            raise UnknownAction(
                "{0} has no action {1}".format(self.name, action)
            )
        if kind is not Kind.INPUT and not self.is_enabled(state, action):
            raise ActionNotEnabled(
                "{0}: {1} not enabled".format(self.name, action)
            )
        successor = state.copy()
        self.transition(successor, action)
        return successor

    def is_external(self, action):
        kind = self.action_kind(action)
        return kind is not None and kind.is_external

    def enabled_controlled(self, state):
        """List the enabled locally controlled actions (deduplicated)."""
        seen = set()
        result = []
        for action in self.controlled_candidates(state):
            if action in seen:
                continue
            seen.add(action)
            if self.is_enabled(state, action):
                result.append(action)
        return result


class TransitionAutomaton(Automaton):
    """Precondition/effect automata in the style of the paper's figures.

    Subclasses declare the signature as three class-level sets of action
    *names*::

        inputs = {"dvs_gpsnd", "dvs_register"}
        outputs = {"dvs_gprcv", "dvs_safe", "dvs_newview"}
        internals = {"dvs_createview", "dvs_order"}

    and implement, for each locally controlled action name, a
    precondition ``pre_<name>(state, *params) -> bool``, an effect
    ``eff_<name>(state, *params)`` mutating ``state``, and a candidate
    generator ``cand_<name>(state)`` yielding
    :class:`~repro.ioa.action.Action` instances.  Input actions only need an
    effect.

    The contract is checked when a subclass is defined, against its
    resolved signature (:class:`~repro.ioa.errors.MalformedAutomaton`):
    an ``eff_`` of a locally controlled action needs a ``pre_`` somewhere
    on the MRO, since :meth:`is_enabled` reads an absent one as ``True``;
    an input action has no ``pre_`` or ``cand_`` (input-enabledness, the
    environment controls inputs); and every handler the class itself
    defines names an action of its signature, since the dispatch never
    reaches a handler that names none.  A handler inherited from a base
    whose action the subclass drops stays legal.
    """

    inputs = frozenset()
    outputs = frozenset()
    internals = frozenset()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        inputs = frozenset(cls.inputs)
        controlled = frozenset(cls.outputs) | frozenset(cls.internals)
        for attr in dir(cls):
            prefix, _, action = attr.partition("_")
            if prefix not in ("pre", "eff", "cand") or not action:
                continue
            if attr in vars(cls) and action not in inputs | controlled:
                raise MalformedAutomaton(
                    "{0}.{1} names {2!r}, which is not in the "
                    "signature".format(cls.__name__, attr, action))
            if prefix != "eff" and action in inputs:
                raise MalformedAutomaton(
                    "{0}.{1} on input action {2!r}: inputs are always "
                    "enabled and controlled by the environment".format(
                        cls.__name__, attr, action))
            if prefix == "eff" and action in controlled and not hasattr(
                    cls, "pre_" + action):
                raise MalformedAutomaton(
                    "{0}.{1} has no pre_{2}: a locally controlled action "
                    "needs an explicit precondition".format(
                        cls.__name__, attr, action))

    #: Set True by per-process automata whose signatures are carved up by
    #: action *parameters* (e.g. ``dvs_newview(v, p)`` belongs to the
    #: automaton at p only).  Relaxes the name-level compatibility check in
    #: compositions; instance-level compatibility is enforced at apply time.
    parameterized_signature = False

    def participates(self, action):
        """Whether this instance's signature contains this specific action
        (:class:`PerProcessAutomaton` claims only its own process's)."""
        return True

    def action_kind(self, action):
        if not self.participates(action):
            return None
        if action.name in self.inputs:
            return Kind.INPUT
        if action.name in self.outputs:
            return Kind.OUTPUT
        if action.name in self.internals:
            return Kind.INTERNAL
        return None

    def is_enabled(self, state, action):
        kind = self.action_kind(action)
        if kind is None:
            return False
        if kind is Kind.INPUT:
            return True
        pre = getattr(self, "pre_" + action.name, None)
        if pre is None:
            return True
        return bool(pre(state, *action.params))

    def transition(self, state, action):
        if self.action_kind(action) is None:
            raise UnknownAction(
                "{0} has no action {1}".format(self.name, action)
            )
        eff = getattr(self, "eff_" + action.name, None)
        if eff is not None:
            eff(state, *action.params)

    def controlled_candidates(self, state):
        for name in sorted(self.outputs | self.internals):
            generator = getattr(self, "cand_" + name, None)
            if generator is None:
                continue
            for action in generator(state):
                yield action


class PerProcessAutomaton(TransitionAutomaton):
    """One automaton of a family indexed by process (``VS-TO-DVS_p``).

    The paper writes the process at which an action occurs as the
    action's last subscript -- ``VS-NEWVIEW(v)_p``, ``DVS-REGISTER_p``,
    ``VS-GPRCV(m)_{p,q}`` at q -- and here it is the action's last
    parameter: the instance for ``pid`` owns the actions of its signature
    whose last parameter is ``pid``, and nothing else.
    """

    parameterized_signature = True

    #: Instances are named ``"<name_prefix>:<pid>"`` in compositions.
    name_prefix = "process"

    def __init__(self, pid):
        self.pid = pid
        self.name = self.component_name(pid)

    @classmethod
    def component_name(cls, pid):
        return "{0}:{1}".format(cls.name_prefix, pid)

    def participates(self, action):
        params = action.params
        return (
            bool(params)
            and params[-1] == self.pid
            and (
                action.name in self.inputs
                or action.name in self.outputs
                or action.name in self.internals
            )
        )
