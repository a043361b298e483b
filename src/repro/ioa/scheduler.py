"""Schedulers: resolve the nondeterministic choice among enabled actions.

An I/O automaton has no built-in scheduling; an execution is produced by
repeatedly choosing one enabled locally controlled action.  For a *closed*
system (every input action is an output of some component, e.g. DVS-IMPL
composed with its environment automata) a scheduler fully determines the
run.  The scheduler here is a deterministic function of its seed, so all
experiments are reproducible.
"""

import random

from repro.ioa.execution import Execution


class RandomScheduler:
    """Uniformly random choice among enabled actions, with optional weights.

    ``weights`` maps action *names* to positive floats; unlisted names get
    weight 1.  Weighting lets adversarial drivers bias executions toward
    interesting interleavings (e.g. frequent view changes) without losing
    the ability to pick any enabled action.
    """

    def __init__(self, seed=0, weights=None):
        self.rng = random.Random(seed)
        self.weights = dict(weights or {})

    def choose(self, actions):
        """Pick one of ``actions`` (a non-empty list)."""
        if len(actions) == 1:
            return actions[0]
        weights = [self.weights.get(a.name, 1.0) for a in actions]
        return self.rng.choices(actions, weights=weights, k=1)[0]

    def run(self, automaton, max_steps, on_step=None):
        """Produce an execution of a closed ``automaton``.

        Runs until ``max_steps`` steps have been taken or no action is
        enabled (quiescence).  ``on_step`` is an optional callback
        ``on_step(step)`` invoked after every step -- used by invariant
        checkers to examine each reachable state as it appears.
        """
        execution = Execution(automaton, automaton.initial_state())
        for _ in range(max_steps):
            enabled = automaton.enabled_controlled(execution.final_state)
            if not enabled:
                break
            enabled.sort(key=str)
            action = self.choose(enabled)
            step = execution.extend(action)
            if on_step is not None:
                on_step(step)
        return execution


def run_random(automaton, max_steps, seed=0, weights=None, on_step=None):
    """One-shot helper around :class:`RandomScheduler`."""
    scheduler = RandomScheduler(seed=seed, weights=weights)
    return scheduler.run(automaton, max_steps, on_step=on_step)
