"""Invariants of DVS (Section 4) and DVS-IMPL (Section 5.2).

The spec-level suite (:func:`dvs_spec_invariants`) checks Invariants 4.1
and 4.2 on states of :class:`repro.dvs.spec.DVSSpec`.

The implementation-level suite (:func:`dvs_impl_invariants`) checks
Invariants 5.1-5.6 on composition states of DVS-IMPL.  One statement is
adjusted relative to the paper's text: Invariant 5.3 part 1 is restricted
to views ``w`` with ``w.id < g``.  The unrestricted statement is falsified
by the algorithm itself (after ``info-sent[g]_p`` is recorded, p goes on to
attempt the view with identifier ``g``, which appears in neither ``{x} ∪ X``
nor below ``x.id``); the paper's proofs of Invariants 5.4 and 5.5 only ever
apply part 1 to views with ``w.id < g``, so the restricted form is the one
actually used.
"""

from repro.core.viewids import vid_ge, vid_gt, vid_le, vid_lt
from repro.dvs.impl import DvsImplState
from repro.dvs.rules import use_views
from repro.dvs.spec import tot_att as spec_tot_att
from repro.dvs.spec import tot_reg as spec_tot_reg
from repro.ioa.invariants import InvariantSuite, lift


def _separated_by_tot_reg(registered, w, v):
    """Whether some ``x ∈ registered`` has ``w.id < x.id < v.id``.

    The oracle's own text on purpose: ``dvs/spec.py`` states the same
    condition separately, because an oracle must not share the predicate
    with what it checks.
    """
    return any(
        vid_lt(w.id, x.id) and vid_lt(x.id, v.id) for x in registered
    )


# -- Specification invariants (Section 4) -------------------------------------


def invariant_4_1(state):
    """Invariant 4.1 (DVS): the dynamic intersection property.

    If ``v, w ∈ created``, ``v.id < w.id``, and no ``x ∈ TotReg`` has
    ``v.id < x.id < w.id``, then ``v.set ∩ w.set ≠ {}``.
    """
    created = sorted(state.created, key=lambda v: v.id)
    registered = spec_tot_reg(state)
    for i, v in enumerate(created):
        for w in created[i + 1:]:
            if _separated_by_tot_reg(registered, v, w):
                continue
            assert v.set & w.set, (
                "views {0} and {1} are disjoint with no totally registered "
                "view between them".format(v, w)
            )
    return True


def invariant_4_2(state):
    """Invariant 4.2 (DVS): a totally attempted view deactivates older ones.

    If ``v ∈ created``, ``w ∈ TotAtt`` and ``v.id < w.id``, then some
    ``p ∈ v.set`` has ``current-viewid[p] > v.id``.
    """
    totally_attempted = spec_tot_att(state)
    for w in totally_attempted:
        for v in state.created:
            if not vid_lt(v.id, w.id):
                continue
            assert any(
                vid_gt(state.current_viewid[p], v.id) for p in v.set
            ), (
                "{0} is totally attempted but every member of older view "
                "{1} still has current-viewid <= {2}".format(w, v, v.id)
            )
    return True


def dvs_spec_invariants():
    """The suite for DVS specification states (Invariants 4.1-4.2)."""
    return InvariantSuite(
        {
            "DVS 4.1 dynamic intersection": invariant_4_1,
            "DVS 4.2 total attempt deactivates": invariant_4_2,
        }
    )


# -- Implementation invariants (Section 5.2) --------------------------------------


def invariant_5_1(impl):
    """Invariant 5.1: attempted views bound members' VS views from below.

    If ``v ∈ attempted_p`` and ``q ∈ v.set`` then ``cur.id_q >= v.id``.
    """
    for p in impl.processes:
        for v in impl.attempted_at(p):
            for q in v.set:
                cur = impl.proc(q).cur
                cur_id = None if cur is None else cur.id
                assert vid_ge(cur_id, v.id), (
                    "{0} attempted at {1} but member {2} has cur = "
                    "{3}".format(v, p, q, cur)
                )
    return True


def invariant_5_2(impl):
    """Invariant 5.2: sanity of ``act``, ``amb`` and ``info-sent``.

    1. ``act_p ∈ TotReg``;
    2. ``w ∈ amb_p  =>  act.id_p < w.id``;
    3. ``cur_p != ⊥ ∧ w ∈ use_p  =>  w.id <= cur.id_p``
       (and ``use_p = {v0}`` while ``cur_p = ⊥``);
    4. ``info-sent[g]_p = <x, X>  =>  x ∈ TotReg``;
    5. ``info-sent[g]_p = <x, X> ∧ w ∈ X  =>  x.id < w.id``;
    6. ``info-sent[g]_p = <x, X> ∧ w ∈ {x} ∪ X  =>  w.id < g``.

    Part 3 adjusts the paper's statement (``w.id <= client-cur.id_p``):
    merging a peer's "info" during the exchange for a view p has not yet
    attempted legitimately raises ``use_p`` above ``client-cur_p`` (we
    found reachable counterexamples), but never above ``cur_p`` -- every
    view mentioned in an "info" for view g has id < g (part 6), and
    garbage collection stops at ``cur``.  The bound by ``cur`` is the
    fact the proofs of Invariants 5.4/5.5 actually consume (they need
    ``use_p`` ids below the view being attempted, which equals ``cur_p``).
    """
    registered = impl.tot_reg
    for p in impl.processes:
        proc = impl.proc(p)
        assert proc.act in registered, (
            "act_{0} = {1} is not totally registered".format(p, proc.act)
        )
        for w in proc.amb:
            assert vid_lt(proc.act.id, w.id), (
                "amb_{0} holds {1} at or below act {2}".format(
                    p, w, proc.act
                )
            )
        if proc.cur is not None:
            for w in use_views(proc):
                assert vid_le(w.id, proc.cur.id), (
                    "use_{0} holds {1} above cur {2}".format(
                        p, w, proc.cur
                    )
                )
        else:
            assert proc.amb == set(), (
                "use_{0} grew before any view arrived".format(p)
            )
        for g, sent in proc.info_sent.nondefault_items().items():
            x, amb_sent = sent
            assert x in registered, (
                "info-sent[{0}]_{1} carries act {2} not totally "
                "registered".format(g, p, x)
            )
            for w in amb_sent:
                assert vid_lt(x.id, w.id), (
                    "info-sent[{0}]_{1}: {2} at or below act {3}".format(
                        g, p, w, x
                    )
                )
            for w in {x} | set(amb_sent):
                assert vid_lt(w.id, g), (
                    "info-sent[{0}]_{1} mentions {2} with id >= {0}".format(
                        g, p, w
                    )
                )
    return True


def invariant_5_3(impl):
    """Invariant 5.3: views survive in "info" messages until collected.

    1. ``info-sent[g]_p = <x, X> ∧ w ∈ attempted_p ∧ w.id < g  =>
       w ∈ {x} ∪ X  ∨  w.id < x.id``  (see the module docstring for the
       ``w.id < g`` restriction);
    2. ``info-rcvd[q, g]_p = <x, X> ∧ w ∈ {x} ∪ X  =>
       w ∈ use_p  ∨  w.id < act.id_p``.
    """
    for p in impl.processes:
        proc = impl.proc(p)
        for g, sent in proc.info_sent.nondefault_items().items():
            x, amb_sent = sent
            mentioned = {x} | set(amb_sent)
            for w in proc.attempted:
                if not vid_lt(w.id, g):
                    continue
                assert w in mentioned or vid_lt(w.id, x.id), (
                    "attempted {0} of {1} missing from info-sent[{2}] "
                    "and not collected (act {3})".format(w, p, g, x)
                )
        in_use = use_views(proc)
        for (q, g), rcvd in proc.info_rcvd.nondefault_items().items():
            x, amb_rcvd = rcvd
            for w in {x} | set(amb_rcvd):
                assert w in in_use or vid_lt(w.id, proc.act.id), (
                    "info-rcvd[{0},{1}]_{2} mentions {3} neither in use "
                    "nor below act {4}".format(q, g, p, w, proc.act)
                )
    return True


def invariant_5_4(impl):
    """Invariant 5.4: chained attempts share a majority.

    If ``v ∈ attempted_p``, ``q ∈ v.set``, ``w ∈ attempted_q``,
    ``w.id < v.id``, and no ``x ∈ TotReg`` has ``w.id < x.id < v.id``,
    then ``|v.set ∩ w.set| > |w.set| / 2``.
    """
    registered = impl.tot_reg
    for p in impl.processes:
        for v in impl.attempted_at(p):
            for q in v.set:
                for w in impl.attempted_at(q):
                    if not vid_lt(w.id, v.id):
                        continue
                    if _separated_by_tot_reg(registered, w, v):
                        continue
                    assert v.majority_of(w), (
                        "{0} (attempted at {1}) lacks a majority of {2} "
                        "(attempted at common member {3})".format(v, w, w, q)
                    )
    return True


def invariant_5_5(impl):
    """Invariant 5.5: attempts majority-intersect the last registered view.

    If ``v ∈ Att``, ``w ∈ TotReg``, ``w.id < v.id``, and no ``x ∈ TotReg``
    has ``w.id < x.id < v.id``, then ``|v.set ∩ w.set| > |w.set| / 2``.
    """
    registered = impl.tot_reg
    for v in impl.att:
        for w in registered:
            if not vid_lt(w.id, v.id):
                continue
            if _separated_by_tot_reg(registered, w, v):
                continue
            assert v.majority_of(w), (
                "attempted {0} lacks a majority of the latest preceding "
                "totally registered view {1}".format(v, w)
            )
    return True


def invariant_5_6(impl):
    """Invariant 5.6: attempted views satisfy the DVS intersection property.

    If ``v, w ∈ Att``, ``w.id < v.id``, and no ``x ∈ TotReg`` has
    ``w.id < x.id < v.id``, then ``v.set ∩ w.set != {}``.
    """
    registered = impl.tot_reg
    attempted = sorted(impl.att, key=lambda v: v.id)
    for i, w in enumerate(attempted):
        for v in attempted[i + 1:]:
            if _separated_by_tot_reg(registered, w, v):
                continue
            assert v.intersects(w), (
                "attempted views {0} and {1} are disjoint with no totally "
                "registered view between them".format(w, v)
            )
    return True


def vs_view_tracking(impl):
    """Auxiliary: each filter's ``cur`` tracks its VS current view.

    ``VS-TO-DVS_p`` sets ``cur`` exactly on ``vs-newview`` inputs, which is
    also when VS updates ``current-viewid[p]``; the refinement's treatment
    of ``msgs-to-vs`` relies on the two never diverging.
    """
    for p in impl.processes:
        cur = impl.proc(p).cur
        cur_id = None if cur is None else cur.id
        assert impl.vs.current_viewid[p] == cur_id, (
            "VS current-viewid[{0}] = {1} but filter cur = {2}".format(
                p, impl.vs.current_viewid[p], cur
            )
        )
    return True


def dvs_impl_invariants(processes):
    """The suite for DVS-IMPL composition states (Invariants 5.1-5.6)."""
    processes = sorted(processes)
    return InvariantSuite(
        {
            name: lift(DvsImplState, processes, predicate)
            for name, predicate in (
                ("DVS-IMPL 5.1 attempt bounds cur", invariant_5_1),
                ("DVS-IMPL 5.2 act/amb/info-sent sanity", invariant_5_2),
                ("DVS-IMPL 5.3 info completeness", invariant_5_3),
                ("DVS-IMPL 5.4 chained majority", invariant_5_4),
                ("DVS-IMPL 5.5 majority of last registered", invariant_5_5),
                ("DVS-IMPL 5.6 attempted intersection", invariant_5_6),
                ("DVS-IMPL aux vs view tracking", vs_view_tracking),
            )
        }
    )
