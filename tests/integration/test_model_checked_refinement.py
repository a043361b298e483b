"""Model-checked refinement: Lemma 5.8 on the transitions of a bounded
breadth-first exploration.

The randomized campaigns check the step correspondence along sampled
executions; here :class:`~repro.ioa.BoundedExplorer` enumerates the
reachable state space of a small configuration breadth-first and the
refinement checker rides its ``on_transition`` hook, so every transition
the explorer takes is checked.  Each test says what that covered: the
TO-IMPL universe finishes under its cap (``result.complete`` is
asserted -- every reachable transition); the two DVS-IMPL universes do
not, and their docstrings say "first N states, truncated" (ROADMAP
item 5 owns making them finish).
"""

from repro.checking import build_closed_dvs_impl, grid_view_pool
from repro.core import make_view
from repro.dvs import dvs_refinement_checker
from repro.ioa import BoundedExplorer
from repro.ioa.execution import Step
from repro.to import to_refinement_checker


def check_all_transitions(system, checker, max_states):
    """Explore breadth-first up to ``max_states``, checking the fragment
    of every transition taken; returns the ``ExplorationResult`` (raises
    on any refinement failure)."""
    checker.check_initial(system.initial_state())
    return BoundedExplorer(
        system,
        max_states=max_states,
        on_transition=lambda state, action, next_state: checker.check_step(
            Step(state, action, next_state)
        ),
    ).explore()


class TestTheorem59ModelChecked:
    def test_two_process_configuration(self):
        """First 2,500 states, truncated."""
        universe = ["p1", "p2"]
        v0 = make_view(0, universe)
        pool = grid_view_pool(universe, max_epoch=1, min_size=2)
        system, procs = build_closed_dvs_impl(
            v0, universe, view_pool=pool, budget=1, eager_register=True
        )
        checker = dvs_refinement_checker(procs, v0, universe)
        result = check_all_transitions(system, checker, max_states=2500)
        assert not result.complete and result.states_visited == 2500
        assert result.transitions > 1000

    def test_single_view_change_configuration(self):
        """First 4,000 states, truncated."""
        universe = ["p1", "p2"]
        v0 = make_view(0, universe)
        v1 = make_view(1, universe)
        system, procs = build_closed_dvs_impl(
            v0, universe, view_pool=[v1], budget=1, eager_register=True
        )
        checker = dvs_refinement_checker(procs, v0, universe)
        result = check_all_transitions(system, checker, max_states=4000)
        assert not result.complete and result.states_visited == 4000
        assert result.transitions > 500


class TestTheorem64ModelChecked:
    def test_two_process_to_impl(self):
        """Complete: every reachable transition of this universe."""
        from repro.checking import build_closed_to_impl

        universe = ["p1", "p2"]
        v0 = make_view(0, universe)
        system, procs = build_closed_to_impl(v0, universe, budget=1)
        checker = to_refinement_checker(procs)
        result = check_all_transitions(system, checker, max_states=2000)
        assert result.complete, result.summary()
        assert result.transitions > 300
