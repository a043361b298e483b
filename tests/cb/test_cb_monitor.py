"""The safety monitor's CB checks: clean runs pass, fabricated
violations of each property are caught."""

import pytest

from repro.cb.messages import CbCast
from repro.core import make_view
from repro.faults.monitor import SafetyMonitor, SafetyViolation
from repro.gcs.recorder import ActionLog


def make_monitor(members="abc", fail_fast=True):
    v0 = make_view(0, members)
    log = ActionLog()
    monitor = SafetyMonitor(v0, fail_fast=fail_fast).attach(log)
    return monitor, log, v0


def cast(view, clock, payload, origin):
    return CbCast(view.id, tuple(clock), payload, origin)


class TestCleanRuns:
    def test_causal_exchange_passes(self):
        monitor, log, v0 = make_monitor()
        m1 = cast(v0, [("a", 1)], "x", "a")
        log.record("cbcast", "x", "a")
        for p in "abc":
            log.record("cb_brcv", m1, "a", p)
        # b casts after delivering a's: clock carries the dependency.
        m2 = cast(v0, [("a", 1), ("b", 1)], "y", "b")
        log.record("cbcast", "y", "b")
        for p in "abc":
            log.record("cb_brcv", m2, "b", p)
        assert monitor.ok
        stats = monitor.stats()
        assert stats["cb_broadcasts"] == 2
        assert stats["cb_deliveries"] == 6

    def test_counts_reset_per_view(self):
        monitor, log, v0 = make_monitor()
        v1 = make_view(1, "abc")
        log.record("cbcast", "x", "a")
        log.record("cb_brcv", cast(v0, [("a", 1)], "x", "a"), "a", "b")
        for p in "abc":
            log.record("dvs_newview", v1, p)
        # Seqno 1 from a again -- legal, it is a fresh view's clock.
        log.record("cbcast", "z", "a")
        log.record("cb_brcv", cast(v1, [("a", 1)], "z", "a"), "a", "b")
        assert monitor.ok


class TestViolations:
    def test_unbroadcast_delivery_is_cb_integrity(self):
        monitor, log, v0 = make_monitor()
        with pytest.raises(SafetyViolation) as err:
            log.record(
                "cb_brcv", cast(v0, [("a", 1)], "ghost", "a"), "a", "b"
            )
        assert err.value.prop == "cb-integrity"

    def test_misattributed_delivery_is_cb_integrity(self):
        monitor, log, v0 = make_monitor(fail_fast=False)
        log.record("cbcast", "x", "a")
        log.record("cb_brcv", cast(v0, [("a", 1)], "x", "a"), "b", "b")
        assert any(
            v.prop == "cb-integrity" for v in monitor.violations
        )

    def test_skipped_seqno_is_cb_gap_free(self):
        monitor, log, v0 = make_monitor()
        log.record("cbcast", "x", "a")
        log.record("cbcast", "y", "a")
        with pytest.raises(SafetyViolation) as err:
            # Seqno 2 delivered before seqno 1.
            log.record(
                "cb_brcv", cast(v0, [("a", 2)], "y", "a"), "a", "b"
            )
        assert err.value.prop == "cb-gap-free"

    def test_duplicate_delivery_is_cb_gap_free(self):
        monitor, log, v0 = make_monitor()
        log.record("cbcast", "x", "a")
        m = cast(v0, [("a", 1)], "x", "a")
        log.record("cb_brcv", m, "a", "b")
        with pytest.raises(SafetyViolation) as err:
            log.record("cb_brcv", m, "a", "b")
        assert err.value.prop == "cb-gap-free"
        # The one violation line: the rejection format, named by check.
        assert err.value.summary() == (
            "CB-GAP-FREE rejected at #2 cb_brcv({0!r}, 'a', 'b'): b's "
            "delivery from a in view {1} carries seqno 1 but 2 is next "
            "(gap or duplicate)".format(m, v0.id)
        )

    def test_missing_causal_predecessor_is_cb_causal_order(self):
        monitor, log, v0 = make_monitor()
        log.record("cbcast", "x", "a")
        log.record("cbcast", "y", "b")
        with pytest.raises(SafetyViolation) as err:
            # b's cast claims a's first cast in its past, but "b" (the
            # receiver here) never delivered it.
            log.record(
                "cb_brcv", cast(v0, [("a", 1), ("b", 1)], "y", "b"),
                "b", "c"
            )
        assert err.value.prop == "cb-causal-order"

    def test_diverging_slot_content_is_cb_content_consistency(self):
        monitor, log, v0 = make_monitor()
        log.record("cbcast", "x", "a")
        log.record("cbcast", "x2", "a")
        log.record("cb_brcv", cast(v0, [("a", 1)], "x", "a"), "a", "b")
        with pytest.raises(SafetyViolation) as err:
            # Same view/sender/seqno slot, different payload elsewhere.
            log.record(
                "cb_brcv", cast(v0, [("a", 1)], "x2", "a"), "a", "c"
            )
        assert err.value.prop == "cb-content-consistency"

    def test_restart_forgets_the_processes_counts(self):
        monitor, log, v0 = make_monitor(fail_fast=False)
        log.record("cbcast", "x", "a")
        log.record("cb_brcv", cast(v0, [("a", 1)], "x", "a"), "a", "b")
        log.record("restart", "b")
        # After an amnesiac restart b may legally re-deliver seqno 1.
        log.record("cb_brcv", cast(v0, [("a", 1)], "x", "a"), "a", "b")
        assert monitor.ok
