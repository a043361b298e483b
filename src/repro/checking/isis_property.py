"""The Isis same-messages property, and why DVS does not provide it.

Section 7 (and the introduction's closing remark) single out one property
of Isis that the DVS specification deliberately omits: *processes that
move together from one view to the next receive exactly the same messages
in the first view*.  The paper notes this is "not needed to verify
applications such as the one giving a totally-ordered broadcast".

This module makes that discussion executable:

- :func:`isis_violations` scans a DVS trace for pairs of processes that
  moved together between consecutive views at a process pair yet received
  different message sets in the earlier view;
- the accompanying experiment (tests/checking/test_isis_property.py and
  benchmark E9) *finds* such violations in DVS executions -- confirming
  the omission is real, not hypothetical -- and confirms the TO trace
  properties hold on those same executions, which is the paper's point:
  total order does not need the Isis property.
"""

from collections import defaultdict
from dataclasses import dataclass
from typing import FrozenSet, Tuple


@dataclass(frozen=True)
class IsisViolation:
    """Two processes moved together but diverged in what they received."""

    earlier_view: object
    later_view: object
    first: str
    second: str
    only_first: FrozenSet[Tuple]
    only_second: FrozenSet[Tuple]

    def __str__(self):
        return (
            "{0} and {1} moved {2} -> {3} with different deliveries "
            "(only {0}: {4}; only {1}: {5})".format(
                self.first,
                self.second,
                self.earlier_view.id,
                self.later_view.id,
                sorted(map(str, self.only_first)),
                sorted(map(str, self.only_second)),
            )
        )


def _delivery_history(trace, initial_view):
    """Per process: list of (view, delivered set in that view)."""
    current = {}
    received = defaultdict(set)
    history = defaultdict(list)  # p -> [(view, frozenset of (m, sender))]
    for p in initial_view.set:
        current[p] = initial_view
    for action in trace:
        if action.name == "dvs_newview":
            view, p = action.params
            if p in current:
                history[p].append(
                    (current[p], frozenset(received.pop(p, set())))
                )
            current[p] = view
        elif action.name == "dvs_gprcv":
            m, sender, p = action.params
            received[p].add((m, sender))
    for p, view in current.items():
        history[p].append((view, frozenset(received.pop(p, set()))))
    return history


def isis_violations(trace, initial_view):
    """All Isis-property violations in a DVS trace.

    For every pair (p, q) and consecutive view transition ``v -> w`` taken
    by *both* (both members of both views, both moving directly from v to
    w), the sets of messages delivered in v must coincide; violations are
    returned (empty list = property held on this trace).
    """
    history = _delivery_history(trace, initial_view)
    # transitions[(v, w)] -> {p: delivered-in-v}
    transitions = defaultdict(dict)
    for p, entries in history.items():
        for (view, delivered), (next_view, _) in zip(entries, entries[1:]):
            if p in view.set and p in next_view.set:
                transitions[(view, next_view)][p] = delivered

    violations = []
    for (view, next_view), movers in transitions.items():
        pids = sorted(movers)
        for i, p in enumerate(pids):
            for q in pids[i + 1:]:
                if movers[p] != movers[q]:
                    violations.append(
                        IsisViolation(
                            earlier_view=view,
                            later_view=next_view,
                            first=p,
                            second=q,
                            only_first=frozenset(movers[p] - movers[q]),
                            only_second=frozenset(movers[q] - movers[p]),
                        )
                    )
    return violations


def find_isis_counterexample(max_seeds=30, steps=2500):
    """Search DVS-IMPL executions for an Isis-property violation.

    Returns ``(seed, violations, execution)`` for the first seed whose
    run violates the property, or ``None`` if none found in budget --
    the paper expects violations to exist (DVS is weaker than Isis).
    """
    from repro.checking.harness import build_closed_dvs_impl
    from repro.checking.drivers import random_view_pool
    from repro.core.views import make_view
    from repro.ioa.scheduler import run_random

    universe = ["p1", "p2", "p3", "p4"]
    v0 = make_view(0, universe[:3])
    for seed in range(max_seeds):
        pool = random_view_pool(universe, 4, seed=seed + 31, min_size=2)
        system, _ = build_closed_dvs_impl(
            v0, universe, view_pool=pool, budget=3
        )
        execution = run_random(
            system,
            steps,
            seed=seed,
            weights={"vs_createview": 0.08, "dvs_register": 2.0},
        )
        violations = isis_violations(execution.trace(), v0)
        if violations:
            return seed, violations, execution
    return None
