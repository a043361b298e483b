"""The Figure 5 reconstruction decision (DESIGN.md note 1), as a test.

The OCR'd figure orders every received label unconditionally
(``order := order + l``).  This module pins down, as a deterministic
scripted execution, the counterexample we found: a payload labelled
*before* its view is established rides in the state-exchange summaries and
is ordered at every member by ``fullorder``; its direct multicast then
arrives afterwards.  Without the ``l ∉ order`` guard the label would be
ordered twice and the payload released to clients twice; with the guard
(our implementation) the run is clean.
"""

import pytest

from repro.core import make_view
from repro.checking import build_closed_to_impl
from repro.checking.trace_props import check_to_trace_properties
from repro.ioa import act
from repro.to.summaries import Label, Summary


UNIVERSE = ["p1", "p2"]


def scripted_execution():
    """Drive the composition through the problematic interleaving.

    p2 broadcasts before establishing view v1, so its label rides in its
    summary; after establishment p2 multicasts the labelled payload
    normally and both members receive it directly as well.
    """
    v0 = make_view(0, UNIVERSE)
    v1 = make_view(1, UNIVERSE)
    system, procs = build_closed_to_impl(
        v0, UNIVERSE, view_pool=[v1], budget=1
    )
    s = system.initial_state()

    def do(*actions):
        nonlocal s
        for action in actions:
            s = system.apply(s, action)

    payload = ("a", "p2", 0)
    do(act("bcast", payload, "p2"))
    do(act("dvs_createview", v1))
    do(act("dvs_newview", v1, "p2"))
    # p2 labels the payload while the view is NOT yet established.
    do(act("label", payload, "p2"))
    label = Label(v1.id, 1, "p2")
    # Build the exact summaries the processes will send.
    app2 = s.part("dvs_to_to:p2")
    summary_p2 = Summary(
        con=frozenset(app2.content), ord=tuple(app2.order),
        next=app2.nextconfirm, high=app2.highprimary,
    )
    do(act("dvs_gpsnd", summary_p2, "p2"))
    do(act("dvs_newview", v1, "p1"))
    app1 = s.part("dvs_to_to:p1")
    summary_p1 = Summary(
        con=frozenset(app1.content), ord=tuple(app1.order),
        next=app1.nextconfirm, high=app1.highprimary,
    )
    do(act("dvs_gpsnd", summary_p1, "p1"))
    # Order and deliver both summaries everywhere -> establishment.
    do(act("dvs_order", summary_p2, "p2", v1.id))
    do(act("dvs_order", summary_p1, "p1", v1.id))
    for receiver in UNIVERSE:
        do(act("dvs_gprcv", summary_p2, "p2", receiver))
        do(act("dvs_gprcv", summary_p1, "p1", receiver))
    # Both established; the label is already in everyone's order via
    # fullorder's remainder.
    for p in UNIVERSE:
        assert label in s.part("dvs_to_to:" + p).order
    # Now p2 multicasts the labelled payload normally.
    do(act("dvs_gpsnd", (label, payload), "p2"))
    do(act("dvs_order", (label, payload), "p2", v1.id))
    for receiver in UNIVERSE:
        do(act("dvs_gprcv", (label, payload), "p2", receiver))
    return system, s, label


class TestGuardPreventsDuplicateOrdering:
    def test_label_ordered_exactly_once(self):
        system, s, label = scripted_execution()
        for p in UNIVERSE:
            order = s.part("dvs_to_to:" + p).order
            assert order.count(label) == 1

    def test_unguarded_append_would_have_duplicated(self):
        """Replay the same interleaving against a variant without the
        guard and observe the duplicate -- demonstrating the
        reconstruction decision is necessary, not stylistic."""
        from repro.to.dvs_to_to import DvsToTo, Summary as _S

        class UnguardedDvsToTo(DvsToTo):
            def eff_dvs_gprcv(self, state, m, q, p):
                if isinstance(m, _S):
                    self._receive_summary(state, m, q)
                else:
                    label, payload = m
                    state.content.add((label, payload))
                    state.order.append(label)  # Figure 5, literally.
                    self._snapshot_order(state)

        import repro.checking.harness as harness
        from repro.checking.drivers import ToClientDriver
        from repro.dvs.spec import DVSSpec
        from repro.ioa.composition import Composition
        from repro.to.impl import DVS_EXTERNAL_ACTIONS

        v0 = make_view(0, UNIVERSE)
        v1 = make_view(1, UNIVERSE)
        dvs = DVSSpec(v0, universe=UNIVERSE, view_pool=[v1])
        apps = [UnguardedDvsToTo(p, v0) for p in UNIVERSE]
        clients = [ToClientDriver(p, budget=1) for p in UNIVERSE]
        system = Composition(
            [dvs] + apps + clients,
            hidden=DVS_EXTERNAL_ACTIONS,
            name="unguarded",
        )
        s = system.initial_state()

        def do(*actions):
            nonlocal s
            for action in actions:
                s = system.apply(s, action)

        payload = ("a", "p2", 0)
        do(act("bcast", payload, "p2"))
        do(act("dvs_createview", v1))
        do(act("dvs_newview", v1, "p2"))
        do(act("label", payload, "p2"))
        label = Label(v1.id, 1, "p2")
        app2 = s.part("dvs_to_to:p2")
        summary_p2 = Summary(
            con=frozenset(app2.content), ord=tuple(app2.order),
            next=app2.nextconfirm, high=app2.highprimary,
        )
        do(act("dvs_gpsnd", summary_p2, "p2"))
        do(act("dvs_newview", v1, "p1"))
        app1 = s.part("dvs_to_to:p1")
        summary_p1 = Summary(
            con=frozenset(app1.content), ord=tuple(app1.order),
            next=app1.nextconfirm, high=app1.highprimary,
        )
        do(act("dvs_gpsnd", summary_p1, "p1"))
        do(act("dvs_order", summary_p2, "p2", v1.id))
        do(act("dvs_order", summary_p1, "p1", v1.id))
        for receiver in UNIVERSE:
            do(act("dvs_gprcv", summary_p2, "p2", receiver))
            do(act("dvs_gprcv", summary_p1, "p1", receiver))
        do(act("dvs_gpsnd", (label, payload), "p2"))
        do(act("dvs_order", (label, payload), "p2", v1.id))
        for receiver in UNIVERSE:
            do(act("dvs_gprcv", (label, payload), "p2", receiver))
        assert s.part("dvs_to_to:p1").order.count(label) == 2
