"""The trace-property checkers themselves: they must detect violations.

A checker that never fires is worse than none; each guarantee gets a
hand-built violating trace that must be rejected, next to a minimal
passing one.
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
            act("vs_safe", "m", "p1", "p2"),
        ]
        stats = check_vs_trace_properties(trace, v0)
        assert stats["deliveries"] == 1

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
        with pytest.raises(AssertionError, match="had not been sent"):
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
