"""Unit tests for executions, schedulers, invariants and the explorer."""

import pytest

from repro.ioa import (
    BoundedExplorer,
    Composition,
    Execution,
    InvariantSuite,
    InvariantViolation,
    RandomScheduler,
    act,
    run_random,
)

from tests.ioa.helpers import Counter, TickListener


def make_system():
    return Composition([Counter(limit=5), TickListener(threshold=2)])


class TestExecution:
    def test_extend_chains_states(self):
        system = make_system()
        ex = Execution(system, system.initial_state())
        step = ex.extend(act("tick"))
        assert step.state is ex.initial_state
        assert ex.final_state is step.next_state
        assert len(ex) == 1

    def test_states_iteration(self):
        system = make_system()
        ex = Execution(system, system.initial_state())
        ex.extend(act("tick"))
        ex.extend(act("tick"))
        assert len(list(ex.states())) == 3


class TestScheduler:
    def test_deterministic_given_seed(self):
        a = run_random(make_system(), 50, seed=4).actions()
        b = run_random(make_system(), 50, seed=4).actions()
        assert a == b

    def test_different_seeds_can_differ(self):
        runs = {
            tuple(run_random(make_system(), 30, seed=s).actions())
            for s in range(8)
        }
        assert len(runs) > 1

    def test_quiescence_stops_run(self):
        lonely = Composition([Counter(limit=2)])
        ex = run_random(lonely, 100, seed=0)
        assert len(ex) == 2  # two ticks then nothing enabled

    def test_weights_bias_choice(self):
        # With reset weight ~0, the counter saturates at its limit.
        ex = run_random(
            make_system(), 200, seed=1, weights={"reset": 1e-9}
        )
        resets = sum(1 for a in ex.actions() if a.name == "reset")
        ticks = sum(1 for a in ex.actions() if a.name == "tick")
        assert ticks > resets

    def test_on_step_callback(self):
        seen = []
        run_random(make_system(), 10, seed=0, on_step=lambda s: seen.append(s))
        assert len(seen) == 10

    def test_choose_singleton_needs_no_rng(self):
        sched = RandomScheduler()
        assert sched.choose([act("x")]) == act("x")


class TestInvariants:
    def test_suite_passes(self):
        system = make_system()
        ex = run_random(system, 40, seed=2)
        suite = InvariantSuite(
            {"count bounded": lambda s: s.part("counter").count <= 5}
        )
        assert suite.check_execution(ex) == len(ex) + 1

    def test_suite_raises_with_name(self):
        suite = InvariantSuite({"always false": lambda s: False})
        system = make_system()
        with pytest.raises(InvariantViolation) as excinfo:
            suite.check_state(system.initial_state())
        assert "always false" in str(excinfo.value)

    def test_assertion_message_propagates(self):
        def pred(state):
            assert False, "the details"

        suite = InvariantSuite({"explained": pred})
        with pytest.raises(InvariantViolation) as excinfo:
            suite.check_state(make_system().initial_state())
        assert "the details" in str(excinfo.value)


class TestBoundedExplorer:
    def test_explores_full_space(self):
        system = make_system()
        result = BoundedExplorer(system).explore()
        assert result.complete
        # Counter 0..5 x heard 0..5, reachable subset; just sanity-check
        # that exploration saw both action types and a nontrivial space.
        assert result.states_visited > 5
        assert set(result.action_counts) == {"tick", "reset"}

    def test_invariant_checked_everywhere(self):
        system = make_system()
        suite = InvariantSuite(
            {"count bounded": lambda s: s.part("counter").count <= 5}
        )
        result = BoundedExplorer(system, invariants=suite).explore()
        assert result.violation is None

    def test_counterexample_path_recorded(self):
        system = make_system()
        suite = InvariantSuite(
            {"never three": lambda s: s.part("counter").count != 3}
        )
        result = BoundedExplorer(system, invariants=suite).explore()
        assert result.violation is not None
        assert [a.name for a in result.counterexample] == ["tick"] * 3

    def test_raises_when_asked(self):
        system = make_system()
        suite = InvariantSuite({"no": lambda s: s.part("counter").count == 0})
        explorer = BoundedExplorer(
            system, invariants=suite, stop_on_violation=False
        )
        with pytest.raises(InvariantViolation):
            explorer.explore()

    def test_max_states_truncates(self):
        system = make_system()
        result = BoundedExplorer(system, max_states=3).explore()
        assert not result.complete
        assert result.states_visited == 3

    def test_max_depth_truncates(self):
        system = make_system()
        result = BoundedExplorer(system, max_depth=1).explore()
        assert not result.complete
        assert result.max_depth_reached <= 1

    def test_summary_string(self):
        result = BoundedExplorer(make_system()).explore()
        assert "complete" in result.summary()

    def test_on_transition_sees_every_transition_taken(self):
        system = make_system()
        seen = []
        result = BoundedExplorer(
            system,
            on_transition=lambda s, a, t: seen.append(
                (s.fingerprint(), a, t.fingerprint())
            ),
        ).explore()
        assert result.complete and len(seen) == result.transitions
        # Each is a real step of the automaton, revisits included.
        assert len(set(seen)) == len(seen) > result.states_visited - 1
        state = system.initial_state()
        first = next(a for s, a, _ in seen if s == state.fingerprint())
        successor = system.apply(state, first).fingerprint()
        assert (state.fingerprint(), first, successor) in seen

    def test_on_transition_may_abort_the_search(self):
        def boom(state, action, next_state):
            raise RuntimeError(action.name)

        with pytest.raises(RuntimeError, match="tick"):
            BoundedExplorer(make_system(), on_transition=boom).explore()

    def test_golden_dvs_impl_exploration(self):
        """The ``repro explore`` universe, first 2,000 states: pins the
        enabled-action set of DVS-IMPL (who may fire what, from where)
        to the values recorded at commit 1015dd4."""
        from repro.checking import build_closed_dvs_impl, grid_view_pool
        from repro.core import make_view
        from repro.dvs import dvs_impl_invariants

        universe = ["p1", "p2"]
        system, procs = build_closed_dvs_impl(
            make_view(0, universe),
            universe,
            view_pool=grid_view_pool(universe, max_epoch=1, min_size=2),
            budget=1,
            eager_register=True,
        )
        result = BoundedExplorer(
            system, invariants=dvs_impl_invariants(procs), max_states=2000
        ).explore()
        assert result.violation is None
        assert (
            result.states_visited,
            result.transitions,
            result.max_depth_reached,
        ) == (2000, 6184, 18)
        assert result.action_counts == {
            "dvs_gpsnd": 767,
            "dvs_newview": 566,
            "dvs_register": 434,
            "vs_createview": 1,
            "vs_gprcv": 1287,
            "vs_gpsnd": 840,
            "vs_newview": 10,
            "vs_order": 561,
            "vs_safe": 1718,
        }
