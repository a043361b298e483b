"""Parameter sweeps: availability as a function of churn parameters.

E6's tables compare rules at fixed parameters; the sweeps trace the whole
curve -- where the static and dynamic rules cross over as the population
drifts faster, and how registration lag prices availability.  These are
the figure-shaped results of the reproduction.
"""

from dataclasses import dataclass

from repro.analysis.availability import run_tracker
from repro.analysis.scenarios import drifting_population, random_churn
from repro.core.views import make_view
from repro.membership.trackers import (
    DynamicVotingTracker,
    StaticMajorityTracker,
)


@dataclass
class SweepPoint:
    """One sweep sample: parameter value and per-rule availability."""

    parameter: float
    static: float
    dynamic: float

    def row(self):
        return [
            "{0:.3f}".format(self.parameter),
            "{0:.3f}".format(self.static),
            "{0:.3f}".format(self.dynamic),
        ]


def _sweep(universe, values, repeats, scenario_for, dynamic_for):
    """One :class:`SweepPoint` per value: the static and the dynamic
    rule over ``scenario_for(value, r)``, averaged over ``repeats``."""
    v0 = make_view(0, universe)
    points = []
    for value in values:
        static_total = 0.0
        dynamic_total = 0.0
        for r in range(repeats):
            scenario = scenario_for(value, r)
            static_total += run_tracker(
                "static", StaticMajorityTracker(v0), scenario
            ).availability
            dynamic_total += run_tracker(
                "dynamic", dynamic_for(v0, value), scenario
            ).availability
        points.append(
            SweepPoint(
                parameter=float(value),
                static=static_total / repeats,
                dynamic=dynamic_total / repeats,
            )
        )
    return points


def sweep_drift_rate(
    universe,
    leave_probs,
    steps=400,
    seed=0,
    join_ratio=0.75,
    repeats=3,
):
    """Availability vs. departure rate, averaged over ``repeats`` seeds.

    ``join_ratio`` scales the join probability relative to the leave
    probability (a shrinking-but-replenished population).
    """
    return _sweep(
        universe, leave_probs, repeats,
        lambda leave_prob, r: drifting_population(
            universe,
            steps,
            seed=seed + r * 101,
            leave_prob=leave_prob,
            join_prob=leave_prob * join_ratio,
        ),
        lambda v0, leave_prob: DynamicVotingTracker(v0),
    )


def sweep_register_lag(
    universe, lags, steps=400, seed=0, partition_prob=0.5, repeats=3
):
    """Availability vs. registration lag, on a fixed population.

    Quantifies the cost of slow state exchange: until a primary is
    registered, it stays ambiguous and constrains its successors.
    The "static" column is the lag-independent baseline.
    """
    return _sweep(
        universe, lags, repeats,
        lambda lag, r: random_churn(
            universe,
            steps,
            seed=seed + r * 31,
            partition_prob=partition_prob,
        ),
        lambda v0, lag: DynamicVotingTracker(v0, register_lag=lag),
    )


def crossover_point(points):
    """The first parameter value at which dynamic availability exceeds
    static, or None if it never does."""
    for point in points:
        if point.dynamic > point.static:
            return point.parameter
    return None


def ascii_series(points, width=40):
    """A tiny ASCII plot of a sweep (two series), for terminal output."""
    lines = []
    for point in points:
        static_bar = int(point.static * width)
        dynamic_bar = int(point.dynamic * width)
        lines.append(
            "{0:>7.3f}  S|{1:<{w}}| {2:.2f}".format(
                point.parameter, "#" * static_bar, point.static, w=width
            )
        )
        lines.append(
            "         D|{0:<{w}}| {1:.2f}".format(
                "#" * dynamic_bar, point.dynamic, w=width
            )
        )
    return "\n".join(lines)
