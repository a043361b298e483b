"""Invariants of CB-IMPL (view-scoped causal broadcast).

All are stated over the composition of the application automata with
the DVS *specification* and checked on states of
:func:`repro.cb.impl.build_cb_impl`.  They capture the view-scoped
guarantees the tier makes:

* clocks never mention processes outside the view that scopes them;
* nobody accounts more deliveries from a sender than that sender has
  timestamped in the (shared) current view -- so per-sender sequence
  numbers cannot gap or duplicate;
* per view and per sender, any two processes' delivery sequences are
  prefixes of one another (FIFO consistency with identical content).
"""

from repro.cb.impl import CbImplState
from repro.ioa.invariants import InvariantSuite, lift


def clocks_scoped_to_view(impl):
    """Clock entries and held-back casts only name current-view members."""
    for p in impl.processes:
        app = impl.app(p)
        if app.current is None:
            continue
        members = set(app.current.set)
        for who, _count in app.delivered:
            assert who in members, (
                "{0}'s delivered clock names {1}, not a member of "
                "{2}".format(p, who, app.current)
            )
        for m in app.holdback:
            assert m.vid == app.current.id, (
                "{0} holds back a cast for view {1} while in view "
                "{2}".format(p, m.vid, app.current.id)
            )
            assert m.origin in members, (
                "{0} holds back a cast from {1}, not a member of "
                "{2}".format(p, m.origin, app.current)
            )
    return True


def delivered_bounded_by_sent(impl):
    """No process accounts more deliveries than the sender timestamped.

    For processes sharing a current view, ``delivered[q] <= sent_q``:
    with the exact-successor delivery condition this is what makes the
    per-sender sequence gap-free and duplicate-free within the view.
    """
    for p in impl.processes:
        app = impl.app(p)
        if app.current is None:
            continue
        for q in impl.processes:
            peer = impl.app(q)
            if peer.current is None or peer.current.id != app.current.id:
                continue
            count = dict(app.delivered).get(q, 0)
            assert count <= peer.sent, (
                "{0} accounts {1} deliveries from {2} but {2} only "
                "timestamped {3} in view {4}".format(
                    p, count, q, peer.sent, app.current.id
                )
            )
    return True


def per_sender_prefix_consistent(impl):
    """Per view and sender, delivery sequences are mutually prefixes."""
    views = set()
    for p in impl.processes:
        views.update(impl.app(p).history.keys())
    for vid in sorted(views):
        for q in impl.processes:
            sequences = []
            for p in impl.processes:
                entries = impl.app(p).history.get(vid)
                sequences.append(
                    tuple(a for a, origin in entries if origin == q)
                )
            for i, left in enumerate(sequences):
                for right in sequences[i + 1:]:
                    shorter, longer = (
                        (left, right) if len(left) <= len(right)
                        else (right, left)
                    )
                    assert longer[: len(shorter)] == shorter, (
                        "view {0}: inconsistent delivery sequences from "
                        "{1}: {2} vs {3}".format(vid, q, shorter, longer)
                    )
    return True


def cb_impl_invariants(processes):
    """The suite for CB-IMPL composition states."""
    processes = sorted(processes)
    return InvariantSuite(
        {
            name: lift(CbImplState, processes, predicate)
            for name, predicate in (
                ("CB-IMPL clocks scoped to view", clocks_scoped_to_view),
                (
                    "CB-IMPL delivered bounded by sent",
                    delivered_bounded_by_sent,
                ),
                (
                    "CB-IMPL per-sender prefixes consistent",
                    per_sender_prefix_consistent,
                ),
            )
        }
    )
