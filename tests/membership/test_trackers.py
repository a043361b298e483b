"""Unit tests for the primary-component trackers."""

import pytest

from repro.core import make_view
from repro.membership import (
    DynamicVotingTracker,
    NaiveDynamicTracker,
    StaticMajorityTracker,
)

FIVE = ["p1", "p2", "p3", "p4", "p5"]


def v0():
    return make_view(0, FIVE)


def fs(*pids):
    return frozenset(pids)


class TestStaticMajority:
    def test_majority_forms(self):
        t = StaticMajorityTracker(v0())
        primaries = t.observe([fs("p1", "p2", "p3"), fs("p4", "p5")])
        assert len(primaries) == 1
        assert primaries[0].set == fs("p1", "p2", "p3")

    def test_no_majority_no_primary(self):
        t = StaticMajorityTracker(v0())
        assert t.observe([fs("p1", "p2"), fs("p3", "p4")]) == []

    def test_departed_universe_starves(self):
        t = StaticMajorityTracker(v0())
        # Only two originals remain, plus fresh processes.
        assert t.observe([fs("p1", "p2", "q1", "q2", "q3")]) == []

    def test_availability_metric(self):
        t = StaticMajorityTracker(v0())
        t.observe([fs(*FIVE)])
        t.observe([fs("p1", "p2")])
        assert t.availability == 0.5
        assert t.steps_with_primary == 1


class TestDynamicVoting:
    def test_adapts_to_shrinking_membership(self):
        t = DynamicVotingTracker(v0())
        assert t.observe([fs("p1", "p2", "p3")])          # majority of 5
        assert t.observe([fs("p1", "p2")])                 # majority of 3
        # But cannot shrink below 2 (strict majority of 2 is 2).
        assert not t.observe([fs("p1")])

    def test_stale_minority_cannot_form(self):
        t = DynamicVotingTracker(v0())
        t.observe([fs("p1", "p2", "p3"), fs("p4", "p5")])
        # p4,p5 still think the 5-member view is current: {p3,p4,p5} IS a
        # majority of it, so it can form -- that is correct and safe
        # (it intersects {p1,p2,p3} at p3).  But {p4,p5} alone cannot.
        assert not t.observe([fs("p1", "p2", "p3"), fs("p4", "p5")])[0:0]
        primaries = t.observe([fs("p1", "p2"), fs("p3", "p4", "p5")])
        # {p1,p2} is a majority of the registered {p1,p2,p3}; {p3,p4,p5}
        # pools p3's knowledge of that same primary and fails against it.
        assert [p.set for p in primaries] == [fs("p1", "p2")]

    def test_register_lag_blocks_until_stable(self):
        t = DynamicVotingTracker(v0(), register_lag=2)
        t.observe([fs("p1", "p2", "p3")])
        # Immediately shrinking again must still check against v0.
        primaries = t.observe([fs("p1", "p2")])
        assert primaries == []  # 2 of 5 fails against unregistered v0

    def test_register_lag_completes_when_stable(self):
        t = DynamicVotingTracker(v0(), register_lag=1)
        t.observe([fs("p1", "p2", "p3")])
        t.observe([fs("p1", "p2", "p3")])  # survives one config -> registered
        primaries = t.observe([fs("p1", "p2")])
        assert [p.set for p in primaries] == [fs("p1", "p2")]

    def test_never_two_disjoint_primaries(self):
        import random

        from repro.analysis import random_churn

        for seed in range(10):
            t = DynamicVotingTracker(
                v0(), register_lag=seed % 3, failure_prob=0.3, seed=seed
            )
            for config in random_churn(FIVE, 300, seed=seed,
                                       partition_prob=0.7):
                t.observe(config)
            assert t.disjoint_primary_incidents() == 0

    def test_fresh_process_knows_initial_view(self):
        t = DynamicVotingTracker(v0())
        primaries = t.observe([fs("p1", "p2", "p3", "q1")])
        assert len(primaries) == 1

    def test_wedging_phenomenon(self):
        """Dynamic voting can wedge: if the last registered primary's
        members depart permanently, no component can ever majority-
        intersect it again -- even one holding a static majority of the
        original universe.  (The price of adaptivity; Jajodia-Mutchler
        observed the same of their scheme.)"""
        t = DynamicVotingTracker(v0())
        assert t.observe([fs("p1", "p2", "p3")])   # shrink to 3 (registered)
        assert t.observe([fs("p1", "p2")])          # shrink to 2 (registered)
        # p1, p2 leave permanently; everyone else reconnects.
        survivors = fs("p3", "p4", "p5")
        for _ in range(5):
            assert t.observe([survivors]) == []     # wedged forever
        # A static majority tracker would have recovered here:
        s = StaticMajorityTracker(v0())
        assert s.observe([survivors])


class TestNaiveDynamic:
    def test_agrees_with_dynamic_when_formations_complete(self):
        from repro.analysis import random_churn

        scenario = random_churn(FIVE, 200, seed=2, partition_prob=0.6)
        naive = NaiveDynamicTracker(v0())
        for config in scenario:
            naive.observe(config)
        assert naive.disjoint_primary_incidents() == 0

    def test_split_brain_under_interrupted_formations(self):
        from repro.analysis import random_churn

        found = False
        for seed in range(20):
            naive = NaiveDynamicTracker(v0(), failure_prob=0.4, seed=seed)
            for config in random_churn(FIVE, 500, seed=seed,
                                       partition_prob=0.7):
                naive.observe(config)
            if naive.disjoint_primary_incidents() > 0:
                found = True
                break
        assert found, "naive dynamic voting never split -- unexpected"

    def test_dynamic_voting_safe_under_same_fault_model(self):
        from repro.analysis import random_churn

        for seed in range(20):
            tracker = DynamicVotingTracker(
                v0(), register_lag=1, failure_prob=0.4, seed=seed
            )
            for config in random_churn(FIVE, 500, seed=seed,
                                       partition_prob=0.7):
                tracker.observe(config)
            assert tracker.disjoint_primary_incidents() == 0


class TestDynamicVotingIsFigure3:
    def test_same_primaries_as_a_literal_replay_of_the_rulebook(self):
        """E6 is measured with Figure 3's clauses, not a paraphrase: over
        a 200-configuration churn the tracker forms exactly the primaries
        a replay written directly against ``dvs/rules.py`` forms --
        every member absorbs every other member's info, the quorum
        clause is ``majority_of_use``, and a formed view is registered
        (garbage-collected into ``act``) by all its members at once."""
        from types import SimpleNamespace

        from repro.analysis import random_churn
        from repro.dvs import rules

        scenario = random_churn(FIVE, 200, seed=7, partition_prob=0.7)
        tracker = DynamicVotingTracker(v0())
        formed = [
            [p.set for p in tracker.observe(config)] for config in scenario
        ]

        state = {p: SimpleNamespace(act=v0(), amb=set()) for p in FIVE}
        epoch = 0
        replayed = []
        for config in scenario:
            primaries = []
            for component in config:
                infos = [
                    SimpleNamespace(act=state[q].act, amb=set(state[q].amb))
                    for q in component
                ]
                for p in component:
                    for info in infos:
                        rules.absorb_info(state[p], info)
                view = make_view(epoch + 1, component)
                if rules.majority_of_use(state[min(component)], view):
                    epoch += 1
                    primaries.append(view.set)
                    for p in component:
                        state[p].amb.add(view)
                    for p in component:
                        rules.garbage_collect(state[p], view)
            replayed.append(primaries)

        assert formed == replayed
        assert sum(map(len, formed)) > 50
