"""Running primary trackers over connectivity scenarios (experiment E6)."""

from dataclasses import dataclass

from repro.analysis.scenarios import drifting_population, random_churn
from repro.core.views import make_view
from repro.membership.trackers import (
    DynamicVotingTracker,
    NaiveDynamicTracker,
    StaticMajorityTracker,
)


@dataclass
class AvailabilityResult:
    """Summary of one tracker over one scenario."""

    name: str
    steps: int
    steps_with_primary: int
    primaries_formed: int
    disjoint_incidents: int

    @property
    def availability(self):
        return self.steps_with_primary / self.steps if self.steps else 0.0

    def row(self):
        return [
            self.name,
            "{0:.3f}".format(self.availability),
            str(self.primaries_formed),
            str(self.disjoint_incidents),
        ]


def run_tracker(name, tracker, scenario):
    """Feed every configuration of ``scenario`` to ``tracker``."""
    formed = 0
    for configuration in scenario:
        formed += len(tracker.observe(configuration))
    return AvailabilityResult(
        name=name,
        steps=len(scenario),
        steps_with_primary=tracker.steps_with_primary,
        primaries_formed=formed,
        disjoint_incidents=tracker.disjoint_primary_incidents(),
    )


def compare_trackers(named_trackers, scenario):
    """Run several trackers over the *same* scenario; return results.

    ``named_trackers`` is an iterable of (name, tracker) pairs.  Trackers
    are stateful and single-use; build fresh ones per comparison.
    """
    return [
        run_tracker(name, tracker, scenario)
        for name, tracker in named_trackers
    ]


#: E6's three regimes, in the order the tables are printed.
E6_REGIMES = (
    "fixed population", "drifting population", "interrupted formations"
)


def e6_table(regime):
    """One of E6's tables at the recorded parameters (EXPERIMENTS.md):
    seven processes, one connectivity history per regime, every rule run
    over that same history.

    1. fixed population -- static and dynamic are comparable;
    2. drifting population -- static availability collapses, dynamic
       tracks the configuration;
    3. interrupted formations -- the naive rule forms disjoint primaries
       (split brain), dynamic voting never does.
    """
    universe = ["p{0}".format(i) for i in range(1, 8)]
    v0 = make_view(0, universe)
    static = ("static majority", StaticMajorityTracker(v0))
    dynamic = ("dynamic voting (DVS)", DynamicVotingTracker(v0))
    if regime == "fixed population":
        scenario = random_churn(universe, 400, seed=3, partition_prob=0.5)
        trackers = [
            static,
            dynamic,
            ("dynamic voting, slow registration",
             DynamicVotingTracker(v0, register_lag=2)),
        ]
    elif regime == "drifting population":
        scenario = drifting_population(
            universe, 600, seed=5, leave_prob=0.02, join_prob=0.015
        )
        trackers = [static, dynamic]
    elif regime == "interrupted formations":
        scenario = random_churn(universe, 500, seed=1, partition_prob=0.7)
        trackers = [
            ("naive dynamic (flawed)",
             NaiveDynamicTracker(v0, failure_prob=0.4, seed=1)),
            ("dynamic voting (DVS)",
             DynamicVotingTracker(v0, register_lag=1, failure_prob=0.4,
                                  seed=1)),
        ]
    else:
        raise ValueError("unknown E6 regime {0!r}".format(regime))
    return compare_trackers(trackers, scenario)
