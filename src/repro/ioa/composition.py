"""Parallel composition and hiding of I/O automata.

Components synchronize on shared action names: when the composition performs
an action, every component whose signature contains the action performs it
simultaneously.  An action is an *output* of the composition if it is an
output of some component, an *input* if it is an input of some component and
an output of none, and *internal* if internal to some component.  Hiding
reclassifies selected output names as internal, exactly as the paper hides
the VS actions inside DVS-IMPL and the DVS actions inside TO-IMPL.
"""

from repro.ioa.action import Kind
from repro.ioa.automaton import Automaton
from repro.ioa.errors import CompositionError, UnknownAction
from repro.ioa.state import State


class CompositionState(State):
    """State of a composition: one sub-state per component, by name."""

    def __init__(self, parts):
        super().__init__(parts=parts)

    def part(self, component_name):
        """The sub-state of the named component."""
        return self.parts[component_name]

    def __getitem__(self, component_name):
        return self.parts[component_name]


class Composition(Automaton):
    """The composition of compatible I/O automata, with optional hiding."""

    def __init__(self, components, hidden=(), name="composition"):
        """``components``: iterable of automata with distinct ``name``s.

        ``hidden``: action *names* to reclassify from output to internal
        (the composition analogue of the paper's "with all the external
        actions of VS hidden").
        """
        self.name = name
        self.components = list(components)
        self._by_name = {}
        for component in self.components:
            if component.name in self._by_name:
                raise CompositionError(
                    "duplicate component name {0!r}".format(component.name)
                )
            self._by_name[component.name] = component
        self.hidden = frozenset(hidden)
        self._check_compatibility()

    def _check_compatibility(self):
        """Lynch-Tuttle compatibility.

        Checked at the level of action names for components with name-level
        signatures.  Components whose signature is carved up by action
        parameters (``parameterized_signature``) are exempt here; for them
        compatibility is enforced per action instance in
        :meth:`action_kind`.
        """
        plain = [
            c
            for c in self.components
            if not getattr(c, "parameterized_signature", False)
        ]
        outputs_seen = {}
        for component in plain:
            for action_name in component.outputs:
                if action_name in outputs_seen:
                    raise CompositionError(
                        "action {0!r} is an output of both {1!r} and "
                        "{2!r}".format(
                            action_name,
                            outputs_seen[action_name],
                            component.name,
                        )
                    )
                outputs_seen[action_name] = component.name
        for component in plain:
            for other in plain:
                if other is component:
                    continue
                shared = component.internals & (
                    other.inputs | other.outputs | other.internals
                )
                if shared:
                    raise CompositionError(
                        "internal actions {0} of {1!r} appear in the "
                        "signature of {2!r}".format(
                            sorted(shared), component.name, other.name
                        )
                    )

    def _classify(self, action):
        """Per-instance classification with compatibility enforcement."""
        owners = []
        participants = 0
        internal_owner = None
        for component in self.components:
            kind = component.action_kind(action)
            if kind is None:
                continue
            participants += 1
            if kind is Kind.OUTPUT:
                owners.append(component.name)
            elif kind is Kind.INTERNAL:
                internal_owner = component.name
        if len(owners) > 1:
            raise CompositionError(
                "action {0} is an output of {1}".format(action, owners)
            )
        if internal_owner is not None and participants > 1:
            raise CompositionError(
                "internal action {0} of {1!r} is shared".format(
                    action, internal_owner
                )
            )
        return participants, bool(owners), internal_owner is not None

    def component(self, component_name):
        return self._by_name[component_name]

    # -- Automaton interface ----------------------------------------------

    @property
    def inputs(self):
        names = set()
        outs = set()
        for component in self.components:
            names |= set(component.inputs)
            outs |= set(component.outputs)
        return frozenset(names - outs)

    @property
    def outputs(self):
        names = set()
        for component in self.components:
            names |= set(component.outputs)
        return frozenset(names - self.hidden)

    @property
    def internals(self):
        names = set(self.hidden)
        for component in self.components:
            names |= set(component.internals)
        return frozenset(names)

    def initial_state(self):
        return CompositionState(
            {c.name: c.initial_state() for c in self.components}
        )

    def action_kind(self, action):
        participants, has_output, has_internal = self._classify(action)
        if participants == 0:
            return None
        if action.name in self.hidden:
            return Kind.INTERNAL
        if has_output:
            return Kind.OUTPUT
        if has_internal:
            return Kind.INTERNAL
        return Kind.INPUT

    def is_enabled(self, state, action):
        """Enabled iff every participating component is willing.

        Components for which the action is an input are always willing; the
        (unique) component owning it as output/internal must satisfy its
        precondition.
        """
        found = False
        for component in self.components:
            kind = component.action_kind(action)
            if kind is None:
                continue
            found = True
            if kind is not Kind.INPUT:
                if not component.is_enabled(state.part(component.name), action):
                    return False
        return found

    def transition(self, state, action):
        found = False
        for component in self.components:
            if component.action_kind(action) is None:
                continue
            found = True
            component.transition(state.parts[component.name], action)
        if not found:
            raise UnknownAction(
                "{0} has no action {1}".format(self.name, action)
            )

    def controlled_candidates(self, state):
        for component in self.components:
            for action in component.controlled_candidates(
                state.part(component.name)
            ):
                yield action
