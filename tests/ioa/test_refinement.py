"""Unit tests for the refinement checker, on a toy spec/impl pair."""

import pytest

from repro.ioa import (
    Composition,
    Execution,
    RefinementChecker,
    RefinementFailure,
    State,
    TransitionAutomaton,
    act,
    run_random,
)


class SpecCounter(TransitionAutomaton):
    """Spec: may emit ``tick`` forever; counts them."""

    name = "spec_counter"
    outputs = frozenset({"tick"})

    def initial_state(self):
        return State(count=0)

    def pre_tick(self, state):
        return True

    def eff_tick(self, state):
        state.count += 1

    def cand_tick(self, state):
        yield act("tick")


class ImplCounter(TransitionAutomaton):
    """Impl: must ``prepare`` (internal) before each ``tick``."""

    name = "impl_counter"
    outputs = frozenset({"tick"})
    internals = frozenset({"prepare"})

    def initial_state(self):
        return State(done=0, ready=False)

    def pre_prepare(self, state):
        return not state.ready

    def eff_prepare(self, state):
        state.ready = True

    def cand_prepare(self, state):
        if not state.ready:
            yield act("prepare")

    def pre_tick(self, state):
        return state.ready

    def eff_tick(self, state):
        state.done += 1
        state.ready = False

    def cand_tick(self, state):
        if state.ready:
            yield act("tick")


class BrokenImplCounter(ImplCounter):
    """Emits two abstract ticks' worth of state per concrete tick."""

    name = "broken_impl"

    def eff_tick(self, state):
        state.done += 2
        state.ready = False


def mapping(impl_state):
    return State(count=impl_state.done)


def hints(step, abstract_from):
    """The proof for the toy pair: ``tick`` is itself, ``prepare`` stutters."""
    return [[step.action]] if step.action.name == "tick" else [[]]


class TestRefinementChecker:
    def _checker(self, hints=hints):
        return RefinementChecker(
            impl=Composition([ImplCounter()]),
            spec=SpecCounter(),
            mapping=lambda s: mapping(s.part("impl_counter")),
            hints=hints,
        )

    def test_initial_state_condition(self):
        checker = self._checker()
        checker.check_initial()

    def test_initial_state_failure_detected(self):
        checker = RefinementChecker(
            impl=Composition([ImplCounter()]),
            spec=SpecCounter(),
            mapping=lambda s: State(count=99),
            hints=hints,
        )
        with pytest.raises(RefinementFailure):
            checker.check_initial()

    def test_execution_passes_with_hints(self):
        checker = self._checker()
        ex = run_random(Composition([ImplCounter()]), 20, seed=1)
        total = checker.check_execution(ex)
        ticks = sum(1 for a in ex.actions() if a.name == "tick")
        assert total == ticks  # prepares map to stutters

    def test_wrong_hint_is_a_failure(self):
        """A spec fragment ``[tick]`` exists for every concrete tick, but
        the proof under test names the empty one: the check fails on what
        was named instead of searching for what would have worked."""
        checker = self._checker(hints=lambda step, abstract_from: [[]])
        ex = run_random(Composition([ImplCounter()]), 20, seed=1)
        with pytest.raises(RefinementFailure, match=r"named fragments \[\] leads"):
            checker.check_execution(ex)

    def test_broken_impl_detected(self):
        checker = RefinementChecker(
            impl=Composition([BrokenImplCounter()]),
            spec=SpecCounter(),
            mapping=lambda s: mapping(s.part("broken_impl")),
            hints=hints,
        )
        ex = run_random(Composition([BrokenImplCounter()]), 4, seed=0)
        with pytest.raises(RefinementFailure):
            checker.check_execution(ex)

    def test_fragments_reported(self):
        checker = self._checker()
        ex = run_random(Composition([ImplCounter()]), 10, seed=0)
        fragments = []
        checker.check_execution(
            ex, on_step=lambda step, frag: fragments.append((step.action.name, frag))
        )
        for name, frag in fragments:
            if name == "tick":
                assert frag == [act("tick")]
            else:
                assert frag == []
