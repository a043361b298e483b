"""The closed systems: who owns each action, and what they are made of."""

import pytest

from repro.cb.impl import build_cb_impl
from repro.checking import (
    build_closed_cb_impl,
    build_closed_dvs_impl,
    build_closed_dvs_spec,
    build_closed_full_stack,
    build_closed_sx_dvs_impl,
    build_closed_sx_to_impl,
    build_closed_to_impl,
    build_closed_vs_spec,
    random_view_pool,
)
from repro.core import make_view
from repro.dvs.impl import build_dvs_impl
from repro.ioa import PerProcessAutomaton, run_random
from repro.to.impl import build_to_impl, build_to_over_dvs_impl

UNIVERSE = ["p1", "p2", "p3"]
V0 = make_view(0, UNIVERSE)
POOL = random_view_pool(UNIVERSE, 4, seed=1)
WEIGHTS = {"vs_createview": 0.4, "dvs_createview": 0.4}

CLOSED = [
    build_closed_vs_spec,
    build_closed_dvs_spec,
    build_closed_dvs_impl,
    build_closed_to_impl,
    build_closed_cb_impl,
    build_closed_sx_dvs_impl,
    build_closed_sx_to_impl,
    build_closed_full_stack,
]


def signature(component):
    return component.inputs | component.outputs | component.internals


@pytest.mark.parametrize(
    "build", CLOSED, ids=lambda build: build.__name__[len("build_closed_"):]
)
def test_last_parameter_owns_the_action(build):
    """The process subscript is the last parameter, everywhere.

    An action carrying its process anywhere else would be claimed by
    nobody and silently never fire; so, along an execution, every
    candidate a per-process component proposes must be its own, and
    every action a per-process signature names must be claimed by
    exactly the components at its last parameter.
    """
    system, procs = build(V0, UNIVERSE, view_pool=POOL)
    owned = [
        c for c in system.components if isinstance(c, PerProcessAutomaton)
    ]
    assert sorted({c.pid for c in owned}) == procs
    names = set().union(*(signature(c) for c in owned))
    ex = run_random(system, 150, seed=0, weights=WEIGHTS)
    assert len(ex) > 50
    for step in ex.steps:
        for c in owned:
            for proposed in c.controlled_candidates(step.state.part(c.name)):
                assert c.action_kind(proposed) is not None, (c.name, proposed)
        action = step.action
        claimed = [c.name for c in owned if c.action_kind(action) is not None]
        assert claimed == [
            c.name for c in owned
            if c.pid == action.params[-1] and action.name in signature(c)
        ], action
        assert claimed or action.name not in names, action


@pytest.mark.parametrize(
    "closed, opened",
    [
        (build_closed_dvs_impl, build_dvs_impl),
        (build_closed_to_impl, build_to_impl),
        (build_closed_cb_impl, build_cb_impl),
        (build_closed_full_stack, build_to_over_dvs_impl),
    ],
    ids=["dvs", "to", "cb", "full_stack"],
)
def test_closed_system_is_the_open_one_plus_clients(closed, opened):
    system, procs = closed(V0, UNIVERSE, view_pool=POOL)
    base = opened(V0, UNIVERSE, view_pool=POOL)
    shared = len(base.components)
    assert [(type(c), c.name) for c in system.components[:shared]] == [
        (type(c), c.name) for c in base.components
    ]
    clients = system.components[shared:]
    assert [c.pid for c in clients] == procs
    assert len({type(c) for c in clients}) == 1
    assert system.hidden == base.hidden
    state, base_state = system.initial_state(), base.initial_state()
    for c in base.components:
        assert (
            state.part(c.name).fingerprint()
            == base_state.part(c.name).fingerprint()
        )
