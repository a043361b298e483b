"""Simulator executions get spans for free: arming ``obs=True`` on a
:class:`repro.gcs.cluster.Cluster` must produce complete causal spans
and action counts without touching the checked action vocabulary."""

from collections import Counter

import pytest

from repro.gcs.cluster import Cluster

PROCS = ["p1", "p2", "p3"]
REQUESTS = 8


@pytest.fixture
def traced():
    cluster = Cluster(PROCS, seed=11, obs=True)
    cluster.start().settle(max_time=500.0)
    for i in range(REQUESTS):
        cluster.bcast(PROCS[i % len(PROCS)], ("req", i))
    cluster.settle(max_time=10000.0)
    return cluster


def test_every_broadcast_yields_one_span_per_member(traced):
    rows = traced.obs.tracer.deliveries()
    assert len(rows) == REQUESTS * len(PROCS)
    assert traced.obs.tracer.orphans() == []
    by_label = {}
    for row in rows:
        by_label.setdefault(str(row["label"]), set()).add(row["dst"])
    assert all(dsts == set(PROCS) for dsts in by_label.values())


def test_stages_sum_exactly_to_total(traced):
    for row in traced.obs.tracer.deliveries():
        assert sum(row["stages"].values()) == pytest.approx(
            row["total"], abs=1e-9
        )
        assert row["total"] > 0


def test_metrics_count_the_workload(traced):
    counts = traced.obs.counts
    assert counts["bcast"] == REQUESTS
    assert counts["brcv"] == REQUESTS * len(PROCS)
    # One count per recorded action (probes add names the log never
    # holds).
    recorded = Counter(a.name for a in traced.log.actions)
    assert {name: counts[name] for name in recorded} == recorded
    total = traced.obs.tracer.stage_summary()["stages"]["total.to"]
    assert total["count"] == REQUESTS * len(PROCS)
    assert total["p50_ms"] > 0


def test_probes_stay_out_of_the_checked_action_log(traced):
    """The tracer-only probe channel must never leak into the action
    vocabulary the trace-property checkers and monitor consume."""
    probe_names = {
        "to_label", "to_deliver", "to_established",
        "dvs_register_view", "vs_seq", "vs_round", "vs_form",
    }
    assert not any(a.name in probe_names for a in traced.log.actions)


def test_untraced_cluster_is_unchanged():
    plain = Cluster(PROCS, seed=11)
    plain.start().settle(max_time=500.0)
    for i in range(REQUESTS):
        plain.bcast(PROCS[i % len(PROCS)], ("req", i))
    plain.settle(max_time=10000.0)
    assert plain.obs is None
    deliveries = [a for a in plain.log.actions if a.name == "brcv"]
    assert len(deliveries) == REQUESTS * len(PROCS)


def test_view_change_produces_a_view_span():
    cluster = Cluster(PROCS, seed=3, obs=True)
    cluster.start().settle(max_time=500.0)
    cluster.bcast("p1", ("before", 0))
    cluster.settle(max_time=5000.0)
    cluster.crash("p3")
    cluster.settle(max_time=5000.0)
    cluster.bcast("p1", ("after", 1))
    cluster.settle(max_time=5000.0)
    spans = [
        s for s in cluster.obs.tracer.view_spans()
        if s["established_at"]
    ]
    assert spans, "the 2-of-3 reformation must appear as a view span"
    reformed = spans[-1]
    # The span covers connectivity change -> ... -> REGISTER, stitched
    # through the leader round via the vs_form probe.
    assert reformed["round"] is not None
    assert "vs_round" in reformed["stages"]
    assert "dvs_register" in reformed["stages"]
    assert reformed["duration"] >= 0
