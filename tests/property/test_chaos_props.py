"""Property tests: DVS/TO safety holds under arbitrary nemesis plans.

Every generated fault schedule (crashes, partitions, flaky windows,
one-way blocks...) is played against the healthy full stack with the
online monitor armed.  The monitor raising would fail the test -- i.e.
Invariant 4.1 and TO prefix-consistency must survive whatever the
nemesis does.
"""

from collections import Counter

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.checking.strategies import nemesis_plans
from repro.dvs.ablation import NoMajorityDvsLayer
from repro.faults.harness import run_chaos
from repro.faults.monitor import SafetyViolation
from repro.faults.nemesis import Nemesis, NemesisPlan, partition_churn
from repro.gcs.cluster import Cluster

PROCS = ["p1", "p2", "p3"]

compact = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow,
                           HealthCheck.filter_too_much],
)


class TestChaosSafety:
    @compact
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        plan=nemesis_plans(PROCS, max_ops=5, horizon=60.0, max_duration=20.0),
    )
    def test_monitor_stays_quiet_on_healthy_stack(self, seed, plan):
        result = run_chaos(
            PROCS, seed=seed, plan=plan,
            duration=min(plan.horizon + 30.0, 120.0),
            settle_time=250.0,
        )
        assert result.ok, result.violation.summary()
        assert result.stats["violations"] == 0

    @compact
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        plan=nemesis_plans(PROCS, max_ops=4, horizon=50.0, max_duration=15.0),
    )
    def test_runs_replay_identically(self, seed, plan):
        first = run_chaos(PROCS, seed=seed, plan=plan, duration=80.0)
        second = run_chaos(PROCS, seed=seed, plan=plan, duration=80.0)
        assert first.digest == second.digest
        assert first.stats == second.stats


def run_duplicate_payload_chaos(processes, seed, plan, duration,
                                dvs_factory=None):
    """``run_chaos``'s workload with one change: every process keeps
    re-broadcasting the same payload, so broadcasts are *not*
    identifiable by ``(payload, origin)``.  Returns the cluster."""
    cluster = Cluster(
        processes, seed=seed, nemesis=Nemesis(plan), monitor=True,
        dvs_factory=dvs_factory,
    )
    net = cluster.net
    ticks = [0]

    def tick():
        if net.queue.now >= duration:
            return
        pid = processes[ticks[0] % len(processes)]
        if net.alive(pid):
            ordering = "cb" if ticks[0] % 4 == 3 else "to"
            cluster.bcast(pid, "hello", ordering=ordering)
        ticks[0] += 1
        net.queue.schedule(2.0, tick)

    net.queue.schedule(2.0, tick)
    try:
        cluster.start().run(duration).settle(max_time=250.0, strict=False)
    except SafetyViolation:
        pass
    return cluster


class TestDuplicatePayloadWorkloads:
    """Oracle soundness (ROADMAP 4.iv): the monitor must not cry wolf
    when applications repeat themselves, and must still catch a stack
    that is actually broken."""

    @compact
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        plan=nemesis_plans(PROCS, max_ops=5, horizon=60.0, max_duration=20.0),
    )
    def test_never_trip_the_unablated_stack(self, seed, plan):
        cluster = run_duplicate_payload_chaos(
            PROCS, seed, plan, duration=min(plan.horizon + 30.0, 120.0)
        )
        # Only runs where some process really repeated itself count.
        bcasts = Counter(a.params for a in cluster.log if a.name == "bcast")
        assume(max(bcasts.values(), default=0) >= 2)
        monitor = cluster.monitor
        assert monitor.ok, monitor.violations[0].summary()

    def test_a_lost_install_at_its_coordinator_remints_no_view_id(self):
        """Invariant 3.1, one view one id (ROADMAP item 23(a)): a drop
        window loses p1's own ``Install`` of ``g1@p1``, and p2 crashes.
        A coordinator that adopted its epoch only when its ``Install``
        came back minted ``g1@p1`` again for ``{p1, p3}``, and VS
        rejected p3's ``vs_newview`` of it at action #31.  The
        coordinator now adopts the epoch when it mints it."""
        plan = NemesisPlan.from_json(
            '[[3.0, "drop", [null, 0.75, 1.0]], [8.0, "crash", ["p2"]]]'
        )
        cluster = run_duplicate_payload_chaos(PROCS, 0, plan, duration=38.0)
        monitor = cluster.monitor
        assert monitor.ok, monitor.violations[0].summary()

    def test_ablated_stack_is_still_caught(self):
        procs = ["p1", "p2", "p3", "p4", "p5"]
        plan = partition_churn(procs, seed=0, start=10.0, duration=120.0)
        cluster = run_duplicate_payload_chaos(
            procs, 0, plan, duration=170.0,
            dvs_factory=NoMajorityDvsLayer,
        )
        (violation,) = cluster.monitor.violations
        assert violation.prop == "dvs"
        assert "forces dvs_createview" in violation.rejection.reason


class TestPlanStrategies:
    @settings(max_examples=40, deadline=None)
    @given(plan=nemesis_plans(PROCS))
    def test_generated_plans_serialize(self, plan):
        assert NemesisPlan.from_json(plan.to_json()) == plan
        assert all(op.at <= op.end for op in plan)
        assert plan.horizon >= 0.0

    def test_hostile_plan_json_rejected(self):
        import pytest

        with pytest.raises(ValueError, match="unknown fault kind"):
            NemesisPlan.from_json('[[0.0, "exec", ["rm -rf /"]]]')
