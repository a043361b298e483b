"""Tests for the online safety monitor: the VS, DVS and TO acceptors,
stepped as actions are recorded.  Each scripted bad trace is pinned on
the rejection it must produce."""

import pytest

from repro.core import make_view
from repro.faults.harness import run_chaos
from repro.faults.monitor import SafetyMonitor, SafetyViolation
from repro.faults.nemesis import NemesisPlan
from repro.gcs.recorder import ActionLog

PROCS = ["p1", "p2", "p3", "p4", "p5"]


def make_monitor(members="abc", fail_fast=True):
    v0 = make_view(0, members)
    log = ActionLog()
    monitor = SafetyMonitor(v0, fail_fast=fail_fast).attach(log)
    return monitor, log, v0


def rejected(err, index, reason):
    """The violation's rejection: the spec's, at the action's index."""
    rejection = err.value.rejection
    assert rejection.index == index and rejection.reason == reason
    assert err.value.detail == str(rejection) == err.value.summary()
    return rejection


class TestVsChecks:
    def test_a_gap_in_a_senders_fifo_order_fails(self):
        """Figure 1's ``pending[p, g]`` is a queue: ``m2`` cannot be
        ordered ahead of ``m1`` (ROADMAP 4(beta)'s safety face)."""
        monitor, log, v0 = make_monitor("ab")
        log.record("vs_gpsnd", "m1", "b")
        log.record("vs_gpsnd", "m2", "b")
        with pytest.raises(SafetyViolation) as err:
            log.record("vs_gprcv", "m2", "b", "a")
        assert err.value.prop == "vs"
        rejected(err, 2, "forces vs_order('m2', 'b', {0!r}), which is not "
                 "enabled".format(v0.id))

    def test_a_duplicated_delivery_fails(self):
        """One ``gpsnd``, two deliveries at a: 4(delta)'s face."""
        monitor, log, _ = make_monitor("ab")
        log.record("vs_gpsnd", "m", "b")
        log.record("vs_gprcv", "m", "b", "a")
        with pytest.raises(SafetyViolation) as err:
            log.record("vs_gprcv", "m", "b", "a")
        assert err.value.prop == "vs" and err.value.rejection.index == 2


class TestDvsChecks:
    def test_intersecting_views_pass(self):
        monitor, log, _ = make_monitor("abc")
        log.record("dvs_newview", make_view(1, "ab"), "a")
        log.record("dvs_newview", make_view(2, "bc"), "b")
        assert monitor.ok

    def test_disjoint_unseparated_views_fail(self):
        """Invariant 4.1 is DVS-CREATEVIEW's precondition."""
        monitor, log, _ = make_monitor("abcd")
        log.record("dvs_newview", make_view(1, "ab"), "a")
        v2 = make_view(2, "cd")
        with pytest.raises(SafetyViolation) as err:
            log.record("dvs_newview", v2, "c")
        assert err.value.prop == "dvs"
        rejected(err, 1, "forces dvs_createview({0!r}), which is not "
                 "enabled".format(v2))
        assert err.value.actions  # carries the event log

    def test_total_registration_separates(self):
        monitor, log, _ = make_monitor("abcd")
        log.record("dvs_newview", make_view(1, "ab"), "a")
        log.record("dvs_newview", make_view(2, "abcd"), "a")
        log.record("dvs_newview", make_view(2, "abcd"), "b")
        log.record("dvs_newview", make_view(2, "abcd"), "c")
        log.record("dvs_newview", make_view(2, "abcd"), "d")
        for p in "abcd":
            log.record("dvs_register", p)
        # v1={a,b} and v3={c,d} are disjoint but separated by registered v2.
        log.record("dvs_newview", make_view(3, "cd"), "c")
        assert monitor.ok
        assert monitor.stats()["totally_registered"] == 2

    def test_out_of_order_views_fail(self):
        monitor, log, _ = make_monitor("abc")
        log.record("dvs_newview", make_view(5, "ab"), "a")
        with pytest.raises(SafetyViolation) as err:
            log.record("dvs_newview", make_view(1, "ab"), "a")
        assert err.value.prop == "dvs"
        rejected(err, 1, "not enabled")

    def test_non_member_view_fails(self):
        monitor, log, _ = make_monitor("abc")
        with pytest.raises(SafetyViolation) as err:
            log.record("dvs_newview", make_view(1, "bc"), "a")
        assert err.value.prop == "dvs"
        rejected(err, 0, "not enabled")

    def test_one_id_names_one_view(self):
        monitor, log, _ = make_monitor("abc")
        log.record("dvs_newview", make_view(1, "ab"), "a")
        twin = make_view(1, "bc")
        with pytest.raises(SafetyViolation) as err:
            log.record("dvs_newview", twin, "b")
        rejected(err, 1, "forces dvs_createview({0!r}), which is not "
                 "enabled".format(twin))

    def test_a_process_outside_the_initial_view_is_a_violation(self):
        """Not a ``KeyError`` from inside the observer."""
        monitor, log, _ = make_monitor("abc")
        with pytest.raises(SafetyViolation) as err:
            log.record("dvs_newview", make_view(1, "az"), "z")
        rejected(err, 0, "'z' is outside the spec's universe")
        monitor, log, _ = make_monitor("abc")
        with pytest.raises(SafetyViolation) as err:
            log.record("bcast", "m1", "z")
        assert err.value.prop == "to"

    def test_registering_with_no_view_is_not_a_violation(self):
        """DVS-REGISTER is an input: always enabled, and with no current
        view Figure 2 records nothing."""
        monitor, log, _ = make_monitor("abc", fail_fast=False)
        log.record("restart", "a")
        log.record("dvs_register", "a")
        assert monitor.ok

    def test_fail_slow_accumulates(self):
        monitor, log, _ = make_monitor("abcd", fail_fast=False)
        log.record("dvs_newview", make_view(1, "ab"), "a")
        log.record("dvs_newview", make_view(2, "cd"), "c")
        log.record("dvs_newview", make_view(3, "cd"), "c")
        assert not monitor.ok
        # The view acceptor is spent at its first rejection.
        assert [v.rejection.index for v in monitor.violations] == [1]


class TestToChecks:
    def test_consistent_prefixes_pass(self):
        monitor, log, _ = make_monitor("abc")
        log.record("bcast", "m1", "a")
        log.record("bcast", "m2", "b")
        log.record("brcv", "m1", "a", "a")
        log.record("brcv", "m1", "a", "b")
        log.record("brcv", "m2", "b", "a")
        assert monitor.ok

    def test_order_disagreement_fails(self):
        monitor, log, _ = make_monitor("abc")
        log.record("bcast", "m1", "a")
        log.record("bcast", "m2", "b")
        log.record("brcv", "m1", "a", "a")
        log.record("brcv", "m2", "b", "a")
        log.record("brcv", "m1", "a", "b")
        with pytest.raises(SafetyViolation) as err:
            log.record("brcv", "m2", "b", "c")  # c skips m1
        assert err.value.prop == "to"
        rejected(err, 5, "not enabled")

    def test_unbroadcast_delivery_fails(self):
        monitor, log, _ = make_monitor("abc")
        with pytest.raises(SafetyViolation) as err:
            log.record("brcv", "ghost", "a", "b")
        assert err.value.prop == "to"
        rejected(err, 0, "forces to_order('ghost', 'a'), which is not "
                 "enabled")

    def test_duplicate_delivery_fails(self):
        monitor, log, _ = make_monitor("abc")
        log.record("bcast", "m1", "a")
        log.record("brcv", "m1", "a", "b")
        with pytest.raises(SafetyViolation) as err:
            log.record("brcv", "m1", "a", "b")
        assert err.value.prop == "to"
        rejected(err, 2, "forces to_order('m1', 'a'), which is not enabled")

    def test_repeated_payload_is_legal_once_per_broadcast(self):
        """Broadcasts are counted, not identified by payload equality:
        ``bcast("hello")`` twice from one process is two messages, and a
        *third* delivery is still a duplicate."""
        monitor, log, _ = make_monitor("abc", fail_fast=False)
        log.record("bcast", "hello", "a")
        log.record("bcast", "hello", "a")
        for pid in "abc":
            log.record("brcv", "hello", "a", pid)
            log.record("brcv", "hello", "a", pid)
        assert monitor.ok
        assert monitor.stats()["broadcasts"] == 2
        log.record("brcv", "hello", "a", "b")
        assert [v.rejection.index for v in monitor.violations] == [8]
        assert monitor.violations[0].prop == "to"

    def test_restart_marker_in_the_log_resets_the_incarnation(self):
        """The one amnesiac-rejoin convention (DESIGN section 9): the
        host records ``restart(p)`` into the log and the acceptors'
        restart rules read it there."""
        monitor, log, _ = make_monitor("abc")
        log.record("bcast", "m1", "a")
        log.record("brcv", "m1", "a", "b")
        log.record("restart", "b")
        log.record("brcv", "m1", "a", "b")  # the fresh b replays
        assert monitor.ok
        with pytest.raises(SafetyViolation) as err:
            log.record("brcv", "m1", "a", "b")
        assert err.value.prop == "to"
        rejected(err, 4, "forces to_order('m1', 'a'), which is not enabled")


class TestMonitoredChaosRuns:
    def test_healthy_stack_survives_partition_churn(self):
        from repro.faults.nemesis import partition_churn

        plan = partition_churn(PROCS, seed=4, start=10.0, duration=90.0)
        result = run_chaos(PROCS, seed=4, plan=plan)
        assert result.ok
        assert result.stats["violations"] == 0
        assert result.stats["attempted_views"] > 1

    def test_broken_stack_is_caught_online(self):
        from repro.dvs.ablation import NoMajorityDvsLayer
        from repro.faults.nemesis import partition_churn

        plan = partition_churn(PROCS, seed=0, start=10.0, duration=120.0)
        result = run_chaos(
            PROCS, seed=0, plan=plan, dvs_factory=NoMajorityDvsLayer
        )
        assert not result.ok
        assert result.violation.prop == "dvs"
        assert "forces dvs_createview" in result.violation.rejection.reason
        # Fail-fast: the run stopped at the violation, well before the
        # plan plus settle time would have elapsed.
        assert result.violation.net_log

    def test_same_seed_same_digest(self):
        from repro.faults.nemesis import crash_recovery_storm

        plan = crash_recovery_storm(PROCS, seed=9, start=5.0, duration=60.0)
        first = run_chaos(PROCS, seed=9, plan=plan, duration=100.0)
        second = run_chaos(PROCS, seed=9, plan=plan, duration=100.0)
        assert first.digest == second.digest
        assert first.ok and second.ok

    def test_different_seed_different_digest(self):
        plan = NemesisPlan([(10.0, "crash", ("p1",))])
        a = run_chaos(PROCS, seed=1, plan=plan, duration=60.0)
        b = run_chaos(PROCS, seed=2, plan=plan, duration=60.0)
        assert a.digest != b.digest

    def test_monitor_forces_full_logging(self):
        plan = NemesisPlan([(10.0, "crash", ("p1",))])
        result = run_chaos(
            PROCS, seed=0, plan=plan, duration=60.0,
            log_limit=5, keep_cluster=True,
        )
        assert result.cluster.net.log.limit is None
        assert result.cluster.net.log.dropped == 0

    def test_unmonitored_run_respects_log_limit(self):
        plan = NemesisPlan([(10.0, "crash", ("p1",))])
        result = run_chaos(
            PROCS, seed=0, plan=plan, duration=60.0,
            monitor=False, log_limit=50, keep_cluster=True,
        )
        assert result.cluster.net.log.limit == 50
        assert len(result.cluster.net.log) <= 100
