"""Preconditions, candidate generators and invariants are pure.

The paper's automata evaluate ``pre_`` / ``cand_`` and the invariants
arbitrarily often and in any order (enabledness probing, candidate
enumeration, invariant sweeps), so none may write the state it reads.
This checks it on the running automata rather than on their text: on
every state a bounded breadth-first exploration of each service
specification and implementation reaches, probing every candidate
action and checking the invariant suite leaves the state's fingerprint
as it was.  Each state is copied when the explorer first builds it,
before the explorer's own probes run on it, so a write that the
exploration repeats on every visit is still seen.
"""

import pytest

from repro.cb.invariants import cb_impl_invariants
from repro.cb.spec import CBSpec
from repro.checking import (
    build_closed_cb_impl,
    build_closed_dvs_impl,
    build_closed_dvs_spec,
    build_closed_to_impl,
    build_closed_vs_spec,
    grid_view_pool,
)
from repro.checking.drivers import CbClientDriver, ToClientDriver
from repro.core import make_view
from repro.dvs import dvs_spec_invariants
from repro.dvs.invariants import dvs_impl_invariants
from repro.ioa import BoundedExplorer, Composition
from repro.to.invariants import to_impl_invariants
from repro.to.spec import TOSpec
from repro.vs.invariants import vs_invariants

UNIVERSE = ["p1", "p2"]


def _part(suite, name):
    return lambda state: suite.check_state(state.part(name))


def _vs_spec():
    v0 = make_view(0, UNIVERSE)
    system, _ = build_closed_vs_spec(
        v0, UNIVERSE, view_pool=grid_view_pool(UNIVERSE, max_epoch=1),
        budget=1)
    return system, _part(vs_invariants(), "vs")


def _dvs_spec():
    v0 = make_view(0, UNIVERSE)
    system, _ = build_closed_dvs_spec(
        v0, UNIVERSE, view_pool=grid_view_pool(UNIVERSE, max_epoch=1),
        budget=1)
    return system, _part(dvs_spec_invariants(), "dvs")


def _dvs_impl():
    v0 = make_view(0, UNIVERSE)
    system, procs = build_closed_dvs_impl(
        v0, UNIVERSE,
        view_pool=grid_view_pool(UNIVERSE, max_epoch=1, min_size=2),
        budget=1, eager_register=True)
    return system, dvs_impl_invariants(procs).check_state


def _to_impl():
    system, procs = build_closed_to_impl(make_view(0, UNIVERSE), UNIVERSE,
                                         budget=1)
    return system, to_impl_invariants(procs).check_state


def _cb_impl():
    system, procs = build_closed_cb_impl(make_view(0, UNIVERSE), UNIVERSE,
                                         budget=1)
    return system, cb_impl_invariants(procs).check_state


def _service(spec, driver):
    """A service specification closed by one client per process; the
    specifications carry no invariant suite of their own."""
    clients = [driver(p, budget=2) for p in UNIVERSE]
    return Composition([spec] + clients), lambda state: None


SYSTEMS = {
    "vs_spec": _vs_spec,
    "dvs_spec": _dvs_spec,
    "dvs_impl": _dvs_impl,
    "to_impl": _to_impl,
    "cb_impl": _cb_impl,
    "to_spec": lambda: _service(TOSpec(UNIVERSE), ToClientDriver),
    "cb_spec": lambda: _service(CBSpec(UNIVERSE), CbClientDriver),
}


def reached_states(system, max_states):
    """The initial state and a copy of every state the explorer builds,
    taken before anything probes it."""
    states = [system.initial_state()]
    BoundedExplorer(
        system, max_states=max_states,
        on_transition=lambda state, action, built: states.append(
            built.copy()),
    ).explore()
    return states


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_probing_a_reached_state_leaves_it_unchanged(name):
    system, check_invariants = SYSTEMS[name]()
    states = reached_states(system, max_states=400)
    assert len(states) > 100
    for state in states:
        before = state.fingerprint()
        for action in list(system.controlled_candidates(state)):
            system.is_enabled(state, action)
        check_invariants(state)
        assert state.fingerprint() == before, (name, state)
