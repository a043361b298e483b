"""Unit tests for scenarios, availability metrics and reporting."""

import pytest

from repro.analysis import (
    compare_trackers,
    drifting_population,
    random_churn,
    render_table,
    run_tracker,
)
from repro.core import make_view
from repro.membership import DynamicVotingTracker, StaticMajorityTracker

FIVE = ["p1", "p2", "p3", "p4", "p5"]


class TestScenarios:
    def test_random_churn_partitions_alive_set(self):
        for config in random_churn(FIVE, 50, seed=1):
            members = [p for group in config for p in group]
            assert sorted(members) == FIVE
            assert all(group for group in config)

    def test_random_churn_deterministic(self):
        assert random_churn(FIVE, 30, seed=9) == random_churn(FIVE, 30, seed=9)

    def test_drifting_population_changes_membership(self):
        scenario = drifting_population(
            FIVE, 400, seed=3, leave_prob=0.05, join_prob=0.05
        )
        first = {p for g in scenario[0] for p in g}
        last = {p for g in scenario[-1] for p in g}
        assert first != last

    def test_drifting_population_respects_min_alive(self):
        scenario = drifting_population(
            FIVE, 300, seed=4, leave_prob=0.5, join_prob=0.0, min_alive=3
        )
        for config in scenario:
            assert sum(len(g) for g in config) >= 3


class TestAvailability:
    def test_run_tracker_counts(self):
        v0 = make_view(0, FIVE)
        halves = [frozenset(FIVE[:2]), frozenset(FIVE[2:])]
        scenario = [halves, [frozenset(FIVE)]] * 3
        result = run_tracker("static", StaticMajorityTracker(v0), scenario)
        assert result.steps == 6
        # Merge steps always have a majority; 3/2 splits give one too.
        assert result.steps_with_primary == 6
        assert result.availability == 1.0

    def test_compare_runs_same_scenario(self):
        v0 = make_view(0, FIVE)
        scenario = random_churn(FIVE, 100, seed=6)
        results = compare_trackers(
            [
                ("static", StaticMajorityTracker(v0)),
                ("dynamic", DynamicVotingTracker(v0)),
            ],
            scenario,
        )
        assert [r.name for r in results] == ["static", "dynamic"]
        assert all(0 <= r.availability <= 1 for r in results)

    def test_e6_shape_static_collapses_under_drift(self):
        """The headline E6 claim: availability of static majorities
        collapses when the population drifts; dynamic voting keeps
        tracking it."""
        v0 = make_view(0, FIVE)
        scenario = drifting_population(
            FIVE, 500, seed=5, leave_prob=0.02, join_prob=0.015
        )
        results = compare_trackers(
            [
                ("static", StaticMajorityTracker(v0)),
                ("dynamic", DynamicVotingTracker(v0)),
            ],
            scenario,
        )
        static, dynamic = results
        assert dynamic.availability > 0.6
        assert static.availability < 0.3
        assert dynamic.availability > static.availability * 2

    def test_e6_shape_fixed_population_comparable(self):
        v0 = make_view(0, FIVE)
        scenario = random_churn(FIVE, 500, seed=7, partition_prob=0.5)
        static, dynamic = compare_trackers(
            [
                ("static", StaticMajorityTracker(v0)),
                ("dynamic", DynamicVotingTracker(v0)),
            ],
            scenario,
        )
        assert abs(static.availability - dynamic.availability) < 0.2


class TestReport:
    def test_render_table_alignment(self):
        table = render_table(
            ["rule", "avail"], [["static", "0.1"], ["dynamic", "0.9"]],
            title="E6",
        )
        lines = table.splitlines()
        assert lines[0] == "E6"
        assert "rule" in lines[1]
        assert set(lines[2]) <= {"-", " "}
        assert len(lines) == 5

    def test_render_table_handles_non_strings(self):
        table = render_table(["n"], [[1], [22]])
        assert "22" in table
