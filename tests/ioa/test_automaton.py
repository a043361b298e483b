"""Unit tests for actions, states and the automaton base classes."""

import pytest

from repro.ioa import (
    Action,
    ActionNotEnabled,
    Kind,
    MalformedAutomaton,
    State,
    TransitionAutomaton,
    UnknownAction,
    act,
)
from repro.ioa.state import fingerprint

from tests.ioa.helpers import BoundedChannel, Counter


class TestAction:
    def test_act_constructor(self):
        a = act("tick", 1, "p")
        assert a == Action("tick", (1, "p"))

    def test_actions_hashable(self):
        assert len({act("a", 1), act("a", 1), act("a", 2)}) == 2

    def test_str(self):
        assert str(act("tick")) == "tick"
        assert "tick(1" in str(act("tick", 1))

    def test_kind_externality(self):
        assert Kind.INPUT.is_external
        assert Kind.OUTPUT.is_external
        assert not Kind.INTERNAL.is_external


class TestState:
    def test_copy_isolates(self):
        s = State(items=[1], n=0)
        t = s.copy()
        t.items.append(2)
        t.n = 5
        assert s.items == [1]
        assert s.n == 0

    def test_value_equality(self):
        assert State(a={1, 2}) == State(a={2, 1})
        assert State(a=1) != State(a=2)

    def test_fingerprint_dict_order_independent(self):
        assert fingerprint({"a": 1, "b": 2}) == fingerprint({"b": 2, "a": 1})

    def test_fingerprint_set_vs_frozenset(self):
        assert fingerprint({1, 2}) == fingerprint(frozenset({2, 1}))

    def test_fingerprint_list_vs_tuple(self):
        assert fingerprint([1, 2]) == fingerprint((1, 2))

    def test_fingerprint_nested(self):
        a = State(t={"x": [1, {2, 3}]})
        b = State(t={"x": [1, {3, 2}]})
        assert a.fingerprint() == b.fingerprint()


class TestTransitionAutomaton:
    def test_signature_classification(self):
        c = Counter()
        assert c.action_kind(act("tick")) is Kind.OUTPUT
        assert c.action_kind(act("reset")) is Kind.INPUT
        assert c.action_kind(act("nope")) is None

    def test_inputs_always_enabled(self):
        c = Counter()
        assert c.is_enabled(c.initial_state(), act("reset"))

    def test_precondition_gates_output(self):
        c = Counter(limit=1)
        s = c.initial_state()
        assert c.is_enabled(s, act("tick"))
        s2 = c.apply(s, act("tick"))
        assert not c.is_enabled(s2, act("tick"))

    def test_apply_returns_new_state(self):
        c = Counter()
        s = c.initial_state()
        s2 = c.apply(s, act("tick"))
        assert s.count == 0
        assert s2.count == 1

    def test_apply_rejects_unknown(self):
        with pytest.raises(UnknownAction):
            Counter().apply(Counter().initial_state(), act("zap"))

    def test_apply_rejects_disabled(self):
        c = Counter(limit=0)
        with pytest.raises(ActionNotEnabled):
            c.apply(c.initial_state(), act("tick"))

    def test_candidates_filtered_by_precondition(self):
        c = Counter(limit=0)
        assert c.enabled_controlled(c.initial_state()) == []

    def test_channel_fifo(self):
        ch = BoundedChannel()
        s = ch.initial_state()
        s = ch.apply(s, act("put", "a"))
        s = ch.apply(s, act("put", "b"))
        assert ch.enabled_controlled(s) == [act("deliver", "a")]
        s = ch.apply(s, act("deliver", "a"))
        assert ch.enabled_controlled(s) == [act("deliver", "b")]

    def test_deliver_wrong_message_disabled(self):
        ch = BoundedChannel()
        s = ch.apply(ch.initial_state(), act("put", "a"))
        assert not ch.is_enabled(s, act("deliver", "b"))


class TestContractAtDefinition:
    """The precondition/effect contract fails a class when it is
    defined, naming the class and the handler."""

    def test_an_effect_without_a_precondition_is_refused(self):
        with pytest.raises(MalformedAutomaton, match=r"Unguarded\.eff_tick "
                           r"has no pre_tick"):
            class Unguarded(TransitionAutomaton):
                outputs = frozenset({"tick"})

                def eff_tick(self, state):
                    state.count += 1

    def test_a_precondition_on_an_input_is_refused(self):
        with pytest.raises(MalformedAutomaton,
                           match=r"Refusing\.pre_reset on input action"):
            class Refusing(Counter):
                def pre_reset(self, state):
                    return state.count > 0

    def test_a_candidate_generator_for_an_input_is_refused(self):
        with pytest.raises(MalformedAutomaton,
                           match=r"Enumerating\.cand_reset on input action"):
            class Enumerating(Counter):
                def cand_reset(self, state):
                    yield act("reset")

    def test_a_handler_naming_no_action_is_refused(self):
        with pytest.raises(MalformedAutomaton, match=r"Misspelt\.eff_tock "
                           r"names 'tock', which is not in the signature"):
            class Misspelt(Counter):
                def eff_tock(self, state):
                    state.count += 1

    def test_an_inherited_handler_of_a_dropped_action_stays_legal(self):
        class Deaf(Counter):
            inputs = frozenset()

        assert Deaf().action_kind(act("reset")) is None
        assert Deaf.eff_reset is Counter.eff_reset

    def test_a_guard_on_a_base_covers_an_overridden_effect(self):
        class Doubling(Counter):
            def eff_tick(self, state):
                state.count += 2

        counter = Doubling(limit=1)
        state = counter.apply(counter.initial_state(), act("tick"))
        assert not counter.is_enabled(state, act("tick"))
