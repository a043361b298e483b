"""Execution tests for DVS-IMPL: Invariants 5.1-5.6 (Section 5.2)."""

import pytest

from repro.core import make_view
from repro.checking import (
    build_closed_dvs_impl,
    check_dvs_trace_properties,
    grid_view_pool,
    random_view_pool,
)
from repro.dvs import dvs_impl_invariants
from repro.dvs.impl import DvsImplState
from repro.ioa import BoundedExplorer, InvariantSuite, run_random


class TestRandomizedInvariants:
    @pytest.mark.parametrize("seed", range(6))
    def test_invariants_hold_under_churn(self, seed):
        universe = ["p1", "p2", "p3", "p4"]
        v0 = make_view(0, universe[:3])
        pool = random_view_pool(universe, 5, seed=seed + 7, min_size=2)
        system, procs = build_closed_dvs_impl(
            v0, universe, view_pool=pool, budget=2
        )
        suite = dvs_impl_invariants(procs)
        ex = run_random(
            system,
            1500,
            seed=seed,
            weights={
                "vs_createview": 0.2,
                "vs_newview": 1.0,
                "dvs_newview": 2.0,
                "dvs_register": 2.0,
                "dvs_garbage_collect": 1.5,
            },
        )
        suite.check_execution(ex)
        check_dvs_trace_properties(ex.trace(), v0)

    @pytest.mark.parametrize("seed", range(4))
    def test_invariants_hold_with_eager_registration(self, seed):
        universe = ["p1", "p2", "p3", "p4", "p5"]
        v0 = make_view(0, universe)
        pool = random_view_pool(universe, 6, seed=seed + 19, min_size=1)
        system, procs = build_closed_dvs_impl(
            v0, universe, view_pool=pool, budget=1, eager_register=True
        )
        suite = dvs_impl_invariants(procs)
        ex = run_random(
            system,
            2000,
            seed=seed,
            weights={
                "vs_createview": 0.3,
                "vs_newview": 1.5,
                "dvs_register": 2.5,
                "dvs_garbage_collect": 2.5,
                "dvs_newview": 2.0,
            },
        )
        suite.check_execution(ex)


class TestDerivedVariables:
    def test_initial_derived_variables(self):
        universe = ["p1", "p2", "p3"]
        v0 = make_view(0, universe)
        system, procs = build_closed_dvs_impl(v0, universe)
        impl = DvsImplState(system.initial_state(), procs)
        assert impl.att == {v0}
        assert impl.tot_att == {v0}
        assert impl.reg_views == {v0}
        assert impl.tot_reg == {v0}

    def test_attempts_tracked(self):
        universe = ["p1", "p2", "p3"]
        v0 = make_view(0, universe)
        pool = [make_view(1, {"p1", "p2"})]
        system, procs = build_closed_dvs_impl(v0, universe, view_pool=pool)
        ex = run_random(
            system, 800, seed=3, weights={"vs_createview": 0.5}
        )
        impl = DvsImplState(ex.final_state, procs)
        # Whatever happened, derived sets are internally consistent.
        assert impl.tot_att <= impl.att
        assert impl.tot_reg <= impl.reg_views
        assert impl.att <= impl.created


class TestBoundedExploration:
    def test_two_process_universe_bounded_exploration(self):
        universe = ["p1", "p2"]
        v0 = make_view(0, universe)
        pool = grid_view_pool(universe, max_epoch=1, min_size=2)
        system, procs = build_closed_dvs_impl(
            v0, universe, view_pool=pool, budget=1, eager_register=True
        )
        suite = dvs_impl_invariants(procs)
        result = BoundedExplorer(
            system, invariants=suite, max_states=60000
        ).explore()
        assert result.violation is None
        # Not exhaustive: the universe outgrows the 60,000-state cap.
        # If this ever fails the explorer finished -- assert
        # ``result.complete`` instead and rename the test back.
        assert not result.complete, result
