"""Invariants of TO-IMPL (Section 6.2: Invariants 6.1-6.3).

All three are stated over the composition of the application automata with
the DVS *specification*; they are checked on states of
:func:`repro.to.impl.build_to_impl`.

Invariant 6.3 quantifies over label sequences sigma; the checkable
equivalent used here: for each created view v, let
``P* = {p ∈ v.set : current.id_p > v.id}``.  When every ``p ∈ P*`` has
``established[v.id]_p``, the maximal sigma satisfying the hypothesis is the
longest common prefix of ``{buildorder[p, v.id] : p ∈ P*}``, and the
invariant demands that this sigma be a prefix of ``x.ord`` for every
summary ``x ∈ allstate`` with ``x.high > v.id``.  (When some ``p ∈ P*`` is
not established, or ``P*`` is empty, no sigma -- respectively every sigma --
satisfies the hypothesis; the first case is vacuous, the second is covered
by Invariant 6.2, which forbids any such ``x`` outright.)
"""

from repro.core.sequences import is_prefix
from repro.core.viewids import vid_gt
from repro.ioa.invariants import InvariantSuite, lift
from repro.to.impl import ToImplState


def _longest_common_prefix(sequences):
    sequences = [list(s) for s in sequences]
    if not sequences:
        return []
    prefix = sequences[0]
    for seq in sequences[1:]:
        limit = min(len(prefix), len(seq))
        i = 0
        while i < limit and prefix[i] == seq[i]:
            i += 1
        prefix = prefix[:i]
    return prefix


def invariant_6_1(impl):
    """Invariant 6.1: every known summary names a totally attempted view.

    If ``x ∈ allstate`` then some ``w ∈ created`` has ``x.high = w.id``
    and every member of w is in ``attempted[w.id]``.
    """
    created_by_id = {w.id: w for w in impl.created}
    for x in impl.allstate():
        w = created_by_id.get(x.high)
        assert w is not None, (
            "summary {0} names uncreated view id {1}".format(x, x.high)
        )
        attempted = impl.dvs.attempted.get(w.id)
        assert w.set <= attempted, (
            "summary {0}: view {1} not attempted by all members "
            "(attempted: {2})".format(x, w, sorted(attempted))
        )
    return True


def invariant_6_2(impl):
    """Invariant 6.2: an established view deactivates older views.

    If ``v ∈ created``, ``x ∈ allstate`` and ``x.high > v.id``, then some
    ``p ∈ v.set`` has ``current.id_p > v.id``.
    """
    highs = {x.high for x in impl.allstate()}
    for v in impl.created:
        if not any(vid_gt(h, v.id) for h in highs):
            continue
        assert any(
            vid_gt(impl.dvs.current_viewid[p], v.id) for p in v.set
        ), (
            "a summary has high > {0} but every member of {1} is still "
            "at or below it".format(v.id, v)
        )
    return True


def invariant_6_3(impl):
    """Invariant 6.3: established orders propagate into later summaries.

    See the module docstring for the executable reading.
    """
    summaries = impl.allstate()
    for v in impl.created:
        movers = [
            p
            for p in v.set
            if vid_gt(impl.dvs.current_viewid[p], v.id)
        ]
        if not movers:
            continue
        if not all(impl.app(p).established.get(v.id) for p in movers):
            continue
        sigma = _longest_common_prefix(
            [impl.app(p).buildorder.get(v.id) for p in movers]
        )
        if not sigma:
            continue
        for x in summaries:
            if not vid_gt(x.high, v.id):
                continue
            assert is_prefix(sigma, x.ord), (
                "summary {0} (high {1}) lost the order established in view "
                "{2}: {3} is not a prefix of {4}".format(
                    x, x.high, v, sigma, list(x.ord)
                )
            )
    return True


def app_view_tracking(impl):
    """Auxiliary: each application's ``current`` tracks DVS's view for it."""
    for p in impl.processes:
        current = impl.app(p).current
        current_id = None if current is None else current.id
        assert impl.dvs.current_viewid[p] == current_id, (
            "DVS current-viewid[{0}] = {1} but application current = "
            "{2}".format(p, impl.dvs.current_viewid[p], current)
        )
    return True


def confirmed_prefixes_consistent(impl):
    """Auxiliary (the heart of Theorem 6.4): confirmed prefixes agree.

    The confirmed prefixes ``order_p(1..nextconfirm_p - 1)`` of all
    processes form a consistent set of label sequences -- this is what
    makes the lub in the TO refinement well-defined and is the substance
    of [12]'s Lemma 6.17 in our setting.
    """
    prefixes = []
    for p in impl.processes:
        app = impl.app(p)
        prefixes.append(list(app.order)[: app.nextconfirm - 1])
    for i, a in enumerate(prefixes):
        for b in prefixes[i + 1:]:
            shorter, longer = (a, b) if len(a) <= len(b) else (b, a)
            assert longer[: len(shorter)] == shorter, (
                "inconsistent confirmed prefixes: {0} vs {1}".format(a, b)
            )
    return True


def to_impl_invariants(processes):
    """The suite for TO-IMPL composition states (Invariants 6.1-6.3)."""
    processes = sorted(processes)
    return InvariantSuite(
        {
            name: lift(ToImplState, processes, predicate)
            for name, predicate in (
                ("TO-IMPL 6.1 summaries name attempted views", invariant_6_1),
                ("TO-IMPL 6.2 establishment deactivates", invariant_6_2),
                ("TO-IMPL 6.3 established order propagates", invariant_6_3),
                ("TO-IMPL aux app view tracking", app_view_tracking),
                (
                    "TO-IMPL aux confirmed prefixes consistent",
                    confirmed_prefixes_consistent,
                ),
            )
        }
    )
