"""Executions, steps and traces."""

from dataclasses import dataclass, field
from typing import List


@dataclass
class Step:
    """One transition ``(state, action, next_state)`` of an execution."""

    state: object
    action: object
    next_state: object

    def __repr__(self):
        return "Step({0})".format(self.action)


@dataclass
class Execution:
    """An alternating sequence ``s0, a1, s1, a2, s2, ...``.

    Stored as the initial state plus a list of :class:`Step`; the invariant
    ``steps[i].state is steps[i-1].next_state`` holds by construction when
    built through :meth:`extend`.
    """

    automaton: object
    initial_state: object
    steps: List[Step] = field(default_factory=list)

    @property
    def final_state(self):
        if self.steps:
            return self.steps[-1].next_state
        return self.initial_state

    def __len__(self):
        return len(self.steps)

    def extend(self, action):
        """Perform ``action`` from the final state and append the step."""
        state = self.final_state
        next_state = self.automaton.apply(state, action)
        step = Step(state, action, next_state)
        self.steps.append(step)
        return step

    def states(self):
        """Yield every state of the execution, initial state first."""
        yield self.initial_state
        for step in self.steps:
            yield step.next_state

    def actions(self):
        return [step.action for step in self.steps]

    def trace(self):
        """The externally visible behaviour: the external actions, in order.

        Traces are the basis of the paper's notion of implementation
        ("in the sense of inclusion of sets of traces", Theorem 5.9).
        """
        return [
            step.action
            for step in self.steps
            if self.automaton.is_external(step.action)
        ]
