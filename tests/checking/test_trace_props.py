"""The trace checkers themselves: they must detect violations.

A checker that never fires is worse than none; each guarantee gets a
hand-built violating trace that must be rejected, next to a minimal
passing one.  Since PR 23 the checkers are the specification automata
walked by :func:`repro.ioa.acceptor.accept`, so "rejected" means "not a
trace of Figure 1 / Figure 2 / TO"; the named traces at the bottom are
the ones ROADMAP item 8 asked for.
"""

import pytest

from repro.checking import (
    check_dvs_trace_properties,
    check_to_trace_properties,
    check_vs_trace_properties,
)
from repro.core import make_view
from repro.ioa import act


@pytest.fixture
def v0():
    return make_view(0, {"p1", "p2", "p3"})


class TestVsChecker:
    def test_minimal_passing_trace(self, v0):
        trace = [
            act("vs_gpsnd", "m", "p1"),
            act("vs_gprcv", "m", "p1", "p2"),
            act("vs_gprcv", "m", "p1", "p1"),
            act("vs_gprcv", "m", "p1", "p3"),
            act("vs_safe", "m", "p1", "p2"),
        ]
        stats = check_vs_trace_properties(trace, v0)
        assert stats == {"views": 1, "deliveries": 3, "safe": 1}

    def test_safe_before_every_member_delivered_violation(self, v0):
        """Until PR 23 this was the "minimal passing" trace: the
        hand-copied property 5 only compared p2's safe sequence with
        p2's own deliveries.  Figure 1's VS-SAFE precondition wants
        ``next[r, g]`` past the message at *every* member r."""
        trace = [
            act("vs_gpsnd", "m", "p1"),
            act("vs_gprcv", "m", "p1", "p2"),
            act("vs_safe", "m", "p1", "p2"),
        ]
        with pytest.raises(AssertionError, match=r"#2 vs_safe.*not enabled"):
            check_vs_trace_properties(trace, v0)

    def test_view_order_violation(self, v0):
        v2 = make_view(2, {"p1", "p2"})
        v1 = make_view(1, {"p1", "p2"})
        trace = [act("vs_newview", v2, "p1"), act("vs_newview", v1, "p1")]
        with pytest.raises(AssertionError):
            check_vs_trace_properties(trace, v0)

    def test_non_member_view_violation(self, v0):
        v1 = make_view(1, {"p1"})
        trace = [act("vs_newview", v1, "p2")]
        with pytest.raises(AssertionError):
            check_vs_trace_properties(trace, v0)

    def test_delivery_without_send_violation(self, v0):
        trace = [act("vs_gprcv", "ghost", "p1", "p2")]
        with pytest.raises(AssertionError):
            check_vs_trace_properties(trace, v0)

    @pytest.mark.parametrize(
        "prefix, check",
        [
            ("vs", check_vs_trace_properties),
            ("dvs", check_dvs_trace_properties),
        ],
        ids=["vs", "dvs"],
    )
    def test_delivery_before_send_violation(self, v0, prefix, check):
        """Property 2 says "no later than its delivery": a send that only
        appears after the delivery does not excuse it."""
        trace = [
            act(prefix + "_gprcv", "m", "p1", "p2"),
            act(prefix + "_gpsnd", "m", "p1"),
        ]
        with pytest.raises(
            AssertionError, match=r"#0 .*forces \w+_order.*not enabled"
        ):
            check(trace, v0)

    def test_cross_view_delivery_violation(self, v0):
        v1 = make_view(1, {"p1", "p2"})
        trace = [
            act("vs_gpsnd", "m", "p1"),     # sent in v0
            act("vs_newview", v1, "p2"),
            act("vs_gprcv", "m", "p1", "p2"),  # delivered in v1
        ]
        with pytest.raises(AssertionError):
            check_vs_trace_properties(trace, v0)

    def test_order_divergence_violation(self, v0):
        trace = [
            act("vs_gpsnd", "m1", "p1"),
            act("vs_gpsnd", "m2", "p2"),
            act("vs_gprcv", "m1", "p1", "p1"),
            act("vs_gprcv", "m2", "p2", "p1"),
            act("vs_gprcv", "m2", "p2", "p2"),
            act("vs_gprcv", "m1", "p1", "p2"),
        ]
        with pytest.raises(AssertionError):
            check_vs_trace_properties(trace, v0)

    def test_safe_not_prefix_violation(self, v0):
        trace = [
            act("vs_gpsnd", "m1", "p1"),
            act("vs_gpsnd", "m2", "p2"),
            act("vs_gprcv", "m1", "p1", "p3"),
            act("vs_gprcv", "m2", "p2", "p3"),
            act("vs_safe", "m2", "p2", "p3"),  # skips m1
        ]
        with pytest.raises(AssertionError):
            check_vs_trace_properties(trace, v0)

    def test_duplicate_delivery_violation(self, v0):
        trace = [
            act("vs_gpsnd", "m1", "p1"),
            act("vs_gprcv", "m1", "p1", "p2"),
            act("vs_gprcv", "m1", "p1", "p2"),
        ]
        with pytest.raises(AssertionError):
            check_vs_trace_properties(trace, v0)


class TestDvsChecker:
    def test_register_counted(self, v0):
        trace = [act("dvs_register", "p1")]
        stats = check_dvs_trace_properties(trace, v0)
        assert stats["registers"] == 1

    def test_inherits_vs_style_checks(self, v0):
        trace = [act("dvs_gprcv", "ghost", "p1", "p2")]
        with pytest.raises(AssertionError):
            check_dvs_trace_properties(trace, v0)


class TestToChecker:
    def test_minimal_passing(self):
        trace = [
            act("bcast", "a", "p1"),
            act("brcv", "a", "p1", "p2"),
            act("brcv", "a", "p1", "p1"),
        ]
        stats = check_to_trace_properties(trace)
        assert stats == {
            "broadcasts": 1, "deliveries": 2, "max_delivered": 1
        }

    def test_integrity_violation(self):
        trace = [act("brcv", "a", "p1", "p2")]
        with pytest.raises(AssertionError):
            check_to_trace_properties(trace)

    def test_attribution_violation(self):
        trace = [
            act("bcast", "a", "p1"),
            act("brcv", "a", "p9", "p2"),
        ]
        with pytest.raises(AssertionError):
            check_to_trace_properties(trace)

    def test_duplicate_violation(self):
        trace = [
            act("bcast", "a", "p1"),
            act("brcv", "a", "p1", "p2"),
            act("brcv", "a", "p1", "p2"),
        ]
        with pytest.raises(AssertionError):
            check_to_trace_properties(trace)

    def test_divergent_orders_violation(self):
        trace = [
            act("bcast", "a", "p1"),
            act("bcast", "b", "p2"),
            act("brcv", "a", "p1", "p1"),
            act("brcv", "b", "p2", "p1"),
            act("brcv", "b", "p2", "p2"),
            act("brcv", "a", "p1", "p2"),
        ]
        with pytest.raises(AssertionError):
            check_to_trace_properties(trace)

    def test_lagging_prefix_ok(self):
        trace = [
            act("bcast", "a", "p1"),
            act("bcast", "b", "p2"),
            act("brcv", "a", "p1", "p1"),
            act("brcv", "b", "p2", "p1"),
            act("brcv", "a", "p1", "p2"),  # p2 lags -- fine
        ]
        check_to_trace_properties(trace)


class TestNamedTraces:
    """The accept / reject cases ROADMAP item 8 names."""

    def test_pr15_payload_broadcast_twice_delivered_twice_accepted(self):
        """PR 15: the monitor cried wolf on a payload one process
        broadcast twice.  TO's ``pending[p]`` is a sequence, not a set:
        two broadcasts, two deliveries, a trace of TO."""
        trace = [
            act("bcast", "a", "p1"),
            act("bcast", "a", "p1"),
            act("brcv", "a", "p1", "p2"),
            act("brcv", "a", "p1", "p2"),
            act("brcv", "a", "p1", "p1"),
        ]
        stats = check_to_trace_properties(trace)
        assert stats == {
            "broadcasts": 2, "deliveries": 3, "max_delivered": 2
        }
        # ...and a third delivery of it is one too many.
        with pytest.raises(AssertionError, match="#5 brcv"):
            check_to_trace_properties(trace + [act("brcv", "a", "p1", "p2")])

    def test_pr18_delivery_before_send_rejected(self):
        """PR 18: trace property 2 accepted a delivery whose send only
        came later.  The spec cannot order what is not pending."""
        trace = [act("brcv", "a", "p1", "p2"), act("bcast", "a", "p1")]
        with pytest.raises(
            AssertionError, match=r"#0 brcv.*forces to_order.*not enabled"
        ):
            check_to_trace_properties(trace)

    def test_literal_figure_3_forwarding_rejected_at_dvs_safe(self, v0):
        """The external projection of tests/dvs/test_safe_reconstruction
        .py::test_minimal_scripted_counterexample: the literal filter
        forwards VS-SAFE to p3's client while p1's and p2's clients have
        not received m.  Not a DVS trace at all (EXPERIMENTS E3)."""
        m = ("m", "p2", 0)
        trace = [
            act("dvs_gpsnd", m, "p2"),
            act("dvs_gprcv", m, "p2", "p3"),
            act("dvs_safe", m, "p2", "p3"),
        ]
        with pytest.raises(AssertionError, match=r"#2 dvs_safe.*not enabled"):
            check_dvs_trace_properties(trace, v0)
        # The repaired filter's trace (every client first) is one.
        repaired = trace[:2] + [
            act("dvs_gprcv", m, "p2", "p1"),
            act("dvs_gprcv", m, "p2", "p2"),
            trace[2],
        ]
        assert check_dvs_trace_properties(repaired, v0)["safe"] == 1

    def test_amnesiac_rejoin_needs_the_restart_marker(self):
        """The shape of a live kill/restart log: n2 dies after
        delivering ``a``, comes back with empty state and replays the
        confirmed order from its start.  TO has no such step; the one
        convention (DESIGN section 9) is the host's ``restart(p)``
        marker, read as ``next[p] = 1``.  Without it the rejoiner's
        first ``brcv`` is a duplicate."""
        before = [
            act("bcast", "a", "n1"),
            act("brcv", "a", "n1", "n1"),
            act("brcv", "a", "n1", "n2"),
            act("bcast", "b", "n1"),
            act("brcv", "b", "n1", "n1"),
        ]
        after = [
            act("brcv", "a", "n1", "n2"),
            act("brcv", "b", "n1", "n2"),
        ]
        check_to_trace_properties(before + [act("restart", "n2")] + after)
        with pytest.raises(AssertionError, match=r"#5 brcv\('a', 'n1', 'n2'\)"):
            check_to_trace_properties(before + after)
