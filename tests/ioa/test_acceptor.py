"""The trace acceptor on toy automata: projection, forced hidden steps,
the restart marker, in-place walking and where it stops."""

from repro.ioa import Rejection, State, TransitionAutomaton, accept, act
from repro.ioa.acceptor import Acceptor

from tests.ioa.helpers import Counter


class Gate(TransitionAutomaton):
    """``pass_`` (output) needs the gate open; ``open_`` is internal."""

    name = "gate"
    outputs = frozenset({"pass_"})
    internals = frozenset({"open_"})

    def initial_state(self):
        return State(open=False, passed=0)

    def pre_open_(self, state):
        return not state.open

    def eff_open_(self, state):
        state.open = True

    def pre_pass_(self, state):
        return state.open

    def eff_pass_(self, state):
        state.passed += 1
        state.open = False


def open_first(state, action):
    if action.name == "pass_" and not state.open:
        yield act("open_")


class TestAccept:
    def test_accepts_a_trace_and_returns_the_state_reached(self):
        state, rejection = accept(Counter(limit=3), [act("tick")] * 3)
        assert rejection is None and state.count == 3

    def test_stops_at_the_first_step_the_spec_cannot_take(self):
        trace = [act("tick")] * 3 + [act("tick"), act("reset")]
        state, rejection = accept(Counter(limit=3), trace)
        assert rejection == Rejection(
            "counter", 3, act("tick"), "not enabled"
        )
        assert str(rejection) == "COUNTER rejected at #3 tick: not enabled"
        assert state.count == 3  # nothing after the rejection was applied

    def test_inputs_are_always_enabled(self):
        trace = [act("tick"), act("reset"), act("tick")]
        state, rejection = accept(Counter(limit=1), trace)
        assert rejection is None and state.count == 1

    def test_projects_onto_the_signature(self):
        trace = [act("unrelated", 1), act("tick"), act("brcv", "a", "p")]
        state, rejection = accept(Counter(), trace)
        assert rejection is None and state.count == 1

    def test_forced_hidden_steps_are_taken_first(self):
        state, rejection = accept(Gate(), [act("pass_")] * 2)
        assert rejection.index == 0 and rejection.reason == "not enabled"
        state, rejection = accept(Gate(), [act("pass_")] * 2, open_first)
        assert rejection is None and state.passed == 2

    def test_a_forced_step_that_is_not_enabled_is_named(self):
        def open_twice(state, action):
            return [act("open_"), act("open_")]

        _, rejection = accept(Gate(), [act("pass_")], open_twice)
        assert rejection.action == act("pass_")
        assert rejection.reason == "forces open_, which is not enabled"

    def test_internal_steps_in_the_trace_are_taken_as_given(self):
        trace = [act("open_"), act("pass_")]
        state, rejection = accept(Gate(), trace, open_first)
        assert rejection is None and state.passed == 1

    def test_restart_marker_goes_to_the_owners_rule(self):
        def forget(state, pid):
            assert pid == "p1"
            state.count = 0

        trace = [act("tick")] * 2 + [act("restart", "p1")] + [act("tick")] * 2
        state, rejection = accept(Counter(limit=2), trace, restart=forget)
        assert rejection is None and state.count == 2
        # Without an owner's rule the marker is skipped, not an error.
        _, rejection = accept(Counter(limit=2), trace)
        assert rejection.index == 3

    def test_walks_in_place(self):
        """One state object from start to finish: no copy per action."""
        spec = Counter(limit=50)
        seen = []
        original = spec.eff_tick

        def spy(state):
            seen.append(id(state))
            original(state)

        spec.eff_tick = spy
        state, _ = accept(spec, [act("tick")] * 50)
        assert set(seen) == {id(state)} and len(seen) == 50


class TestAcceptorOnline:
    """:class:`Acceptor` is what :func:`accept` loops over; the online
    monitor steps it as actions are recorded."""

    def test_step_by_step_is_the_walk(self):
        trace = [act("unrelated"), act("tick"), act("tick"), act("tick")]
        acceptor = Acceptor(Counter(limit=2))
        verdicts = [acceptor.step(action) for action in trace]
        assert verdicts[:3] == [None, None, None]
        assert verdicts[3] == accept(Counter(limit=2), trace)[1]
        assert verdicts[3].index == 3

    def test_a_spent_acceptor_reports_once(self):
        acceptor = Acceptor(Counter(limit=0))
        assert acceptor.step(act("tick")) is not None
        assert acceptor.step(act("tick")) is None
        assert acceptor.rejection.index == 0 and acceptor.index == 2

    def test_a_caller_routing_by_name_passes_the_index(self):
        acceptor = Acceptor(Counter(limit=1))
        assert acceptor.names == {"tick", "reset", "restart"}
        acceptor.step(act("tick"), 4)
        assert acceptor.step(act("tick"), 9).index == 9

    def test_each_name_is_resolved_once(self):
        spec = Counter(limit=5)
        acceptor = Acceptor(spec)
        acceptor.step(act("tick"))
        spec.pre_tick = lambda state: False  # too late: already resolved
        assert acceptor.step(act("tick")) is None

    def test_a_key_outside_the_universe_is_a_rejection(self):
        class Keyed(Counter):
            def eff_reset(self, state, pid):
                state.by_pid[pid] += 1

            def initial_state(self):
                return State(count=0, by_pid={"p1": 0})

        acceptor = Acceptor(Keyed())
        assert acceptor.step(act("reset", "p1")) is None
        rejection = acceptor.step(act("reset", "zz"))
        assert rejection.reason == "'zz' is outside the spec's universe"
