"""Bounded exhaustive exploration of closed automata.

For small universes (2-3 processes, 1-2 client messages, a handful of view
identifiers) the reachable state spaces of the paper's automata are small
enough to enumerate.  :class:`BoundedExplorer` performs breadth-first search
over canonical state fingerprints, checking an invariant suite at every
state, and optionally collecting statistics (diameter, counts by action).

This complements the randomized checking: randomized runs go deep on large
configurations, the explorer goes *complete* on small ones.
"""

from collections import deque
from dataclasses import dataclass, field
from typing import Dict

from repro.ioa.errors import InvariantViolation


@dataclass
class ExplorationResult:
    """Outcome of a bounded exploration."""

    states_visited: int = 0
    transitions: int = 0
    frontier_truncated: bool = False
    max_depth_reached: int = 0
    action_counts: Dict[str, int] = field(default_factory=dict)
    violation: object = None
    counterexample: object = None

    @property
    def complete(self):
        """Whether the whole reachable space was covered."""
        return not self.frontier_truncated

    def summary(self):
        return (
            "{0} states, {1} transitions, depth {2}, {3}".format(
                self.states_visited,
                self.transitions,
                self.max_depth_reached,
                "complete" if self.complete else "truncated",
            )
        )


class BoundedExplorer:
    """Breadth-first reachability with invariant checking.

    Parameters
    ----------
    automaton:
        A *closed* automaton (all behaviour locally controlled).
    invariants:
        Optional :class:`~repro.ioa.invariants.InvariantSuite`.
    max_states / max_depth:
        Exploration bounds; exceeding either sets ``frontier_truncated``.
    stop_on_violation:
        When True (default) a violated invariant aborts the search and is
        recorded, together with the path from the initial state, in
        ``violation`` / ``counterexample``.  When False the search raises.
    on_transition:
        Optional ``on_transition(state, action, next_state)``, called on
        every transition explored; ``complete`` says if that was all.
    """

    def __init__(
        self,
        automaton,
        invariants=None,
        max_states=100000,
        max_depth=None,
        stop_on_violation=True,
        on_transition=None,
    ):
        self.automaton = automaton
        self.invariants = invariants
        self.max_states = max_states
        self.max_depth = max_depth
        self.stop_on_violation = stop_on_violation
        self.on_transition = on_transition

    def explore(self):
        result = ExplorationResult()
        initial = self.automaton.initial_state()
        root = initial.fingerprint()
        # fingerprint -> (parent fingerprint, action taken from it): the
        # visited set and, read backwards, the path to every state.
        parents = {root: None}
        if not self._check(initial, root, parents, result):
            return result
        queue = deque([(initial, root, 0)])
        result.states_visited = 1
        while queue:
            state, state_key, depth = queue.popleft()
            result.max_depth_reached = max(result.max_depth_reached, depth)
            if self.max_depth is not None and depth >= self.max_depth:
                result.frontier_truncated = True
                continue
            for action in self.automaton.enabled_controlled(state):
                next_state = self.automaton.apply(state, action)
                if self.on_transition is not None:
                    self.on_transition(state, action, next_state)
                result.transitions += 1
                result.action_counts[action.name] = (
                    result.action_counts.get(action.name, 0) + 1
                )
                key = next_state.fingerprint()
                if key in parents:
                    continue
                parents[key] = (state_key, action)
                if not self._check(next_state, key, parents, result):
                    return result
                result.states_visited += 1
                if result.states_visited >= self.max_states:
                    result.frontier_truncated = True
                    return result
                queue.append((next_state, key, depth + 1))
        return result

    def _check(self, state, key, parents, result):
        """Check invariants; record or raise on violation.

        Returns False when exploration should stop; the counterexample
        path is rebuilt from the parent pointers only then.
        """
        if self.invariants is None:
            return True
        try:
            self.invariants.check_state(state)
        except InvariantViolation as violation:
            if not self.stop_on_violation:
                raise
            result.violation = violation
            path = []
            while parents[key] is not None:
                key, action = parents[key]
                path.append(action)
            result.counterexample = path[::-1]
            return False
        return True
