"""Tests for the fair scheduler."""

from repro.core import make_view
from repro.ioa import Composition, FairScheduler, run_fair

from tests.ioa.helpers import Counter, TickListener


class TestFairScheduler:
    def test_rotates_over_names(self):
        system = Composition([Counter(limit=100), TickListener(threshold=1)])
        ex = run_fair(system, 40, seed=0)
        names = {a.name for a in ex.actions()}
        assert names == {"tick", "reset"}
        # Roughly balanced, unlike a pure-random run over many ticks.
        from collections import Counter as C

        counts = C(a.name for a in ex.actions())
        assert abs(counts["tick"] - counts["reset"]) <= len(ex) // 2

    def test_deterministic(self):
        system = Composition([Counter(limit=5), TickListener(threshold=2)])
        a = run_fair(system, 30, seed=7).actions()
        b = run_fair(system, 30, seed=7).actions()
        assert a == b

    def test_reaches_rare_actions_without_weights(self):
        """On DVS-IMPL the fair scheduler exercises view changes without
        hand-tuned weights."""
        from repro.checking import build_closed_dvs_impl, random_view_pool

        universe = ["p1", "p2", "p3"]
        v0 = make_view(0, universe)
        pool = random_view_pool(universe, 2, seed=5, min_size=3)
        system, procs = build_closed_dvs_impl(
            v0, universe, view_pool=pool, budget=1
        )
        ex = run_fair(system, 600, seed=1)
        names = {a.name for a in ex.actions()}
        assert "vs_createview" in names
        assert "dvs_newview" in names
