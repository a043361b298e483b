"""Figure 3's per-view rules, stated once.

``VS-TO-DVS_p`` exists twice on purpose (DESIGN.md §7): the automaton
(:mod:`repro.dvs.vs_to_dvs`) keeps the paper's state literally, for the
invariants and the refinement; the layer (:mod:`repro.gcs.dvs_layer`)
keeps what the message path can afford.  The *decisions* taken once
per view -- merge a peer's "info", wait for every member, test the
quorum clause, garbage-collect -- are pure functions of ``(act, amb)``
and the view, and live here: the clause checked against Invariants
5.1-5.6 is the clause that runs.  ``state`` is anything with assignable
``act`` and ``amb`` (a ``VsToDvsState`` or a ``DvsLayer``); nothing
here is called per client message.
"""

from repro.core.viewids import vid_gt


def use_views(state):
    """The derived variable ``use = {act} ∪ amb``."""
    return {state.act} | set(state.amb)


def _keep_above_act(state, views):
    """``amb`` holds only views ``act`` has not overtaken."""
    state.amb = {w for w in views if vid_gt(w.id, state.act.id)}


def absorb_info(state, info):
    """A peer's ``(act, amb)``: adopt the later ``act``, join the ambs."""
    if vid_gt(info.act.id, state.act.id):
        state.act = info.act
    _keep_above_act(state, state.amb | set(info.amb))


def heard_from_all(view, pid, has_info):
    """Every *other* member's "info" for ``view`` has arrived
    (``has_info(q)``); our own is reflected back through VS anyway."""
    return all(q == pid or has_info(q) for q in view.set)


def majority_of_use(state, view):
    """The quorum clause of DVS-NEWVIEW: ``view`` holds a majority of
    every possible previous primary."""
    return all(view.majority_of(w) for w in use_views(state))


def intersects_use(state, view):
    """The E7 ablation of :func:`majority_of_use`: nonempty intersection
    only, which no longer implies the global property it stands for."""
    return all(view.intersects(w) for w in use_views(state))


def totally_registered(state, view, has_registered):
    """DVS-GARBAGE-COLLECT's precondition: every member's "registered"
    for ``view`` seen (``has_registered(q)``), and ``view`` advances
    ``act`` -- which keeps ``act`` monotone ("the latest view [p] knows
    to be totally registered")."""
    return vid_gt(view.id, state.act.id) and all(
        has_registered(q) for q in view.set
    )


def garbage_collect(state, view):
    """``view`` becomes ``act``; everything at or below it leaves ``amb``."""
    state.act = view
    _keep_above_act(state, state.amb)
