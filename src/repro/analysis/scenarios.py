"""Connectivity-history generators.

A *scenario* is a list of configurations; a configuration is a list of
disjoint frozensets partitioning the processes alive at that step.  The
generators are deterministic in their seed.
"""

import random


def _random_partition(rng, alive, max_groups):
    """Partition ``alive`` into 1..max_groups nonempty random groups."""
    alive = sorted(alive)
    if not alive:
        return []
    groups_count = rng.randint(1, min(max_groups, len(alive)))
    groups = [set() for _ in range(groups_count)]
    shuffled = alive[:]
    rng.shuffle(shuffled)
    # Guarantee nonempty groups, then scatter the rest.
    for index in range(groups_count):
        groups[index].add(shuffled[index])
    for pid in shuffled[groups_count:]:
        groups[rng.randrange(groups_count)].add(pid)
    return [frozenset(g) for g in groups]


def random_churn(universe, steps, seed=0, partition_prob=0.4, max_groups=3):
    """Random partitions and merges over a fixed population.

    With probability ``partition_prob`` a step repartitions the universe;
    otherwise the whole universe is one component.
    """
    rng = random.Random(seed)
    universe = sorted(universe)
    scenario = []
    for _ in range(steps):
        if rng.random() < partition_prob:
            scenario.append(_random_partition(rng, universe, max_groups))
        else:
            scenario.append([frozenset(universe)])
    return scenario


def drifting_population(
    initial,
    steps,
    seed=0,
    leave_prob=0.03,
    join_prob=0.02,
    partition_prob=0.3,
    max_groups=3,
    min_alive=3,
):
    """A population that evolves: permanent departures and fresh joins.

    This is the regime the paper motivates dynamic primaries for
    (Section 1: "for high availability in a system where processes can
    join and leave routinely").  Departed processes never return; joined
    processes get fresh identifiers.  The alive set never drops below
    ``min_alive``.
    """
    rng = random.Random(seed)
    alive = sorted(initial)
    fresh_counter = 0
    scenario = []
    for _ in range(steps):
        # Drift.
        for pid in list(alive):
            if len(alive) > min_alive and rng.random() < leave_prob:
                alive.remove(pid)
        if rng.random() < join_prob:
            fresh_counter += 1
            alive.append("q{0}".format(fresh_counter))
            alive.sort()
        # Connectivity.
        if rng.random() < partition_prob:
            scenario.append(_random_partition(rng, alive, max_groups))
        else:
            scenario.append([frozenset(alive)])
    return scenario
