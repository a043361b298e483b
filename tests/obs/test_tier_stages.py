"""Tier-agnostic span decomposition: one tracer, two ordering towers.

A mixed TO+CB workload must yield one complete span per delivery in
*either* tier, each row labelled with its tier and decomposing exactly
into ``wire + vs + dvs + <tier>`` -- and the summary must break the
population out per tier.
"""

import json

import pytest

from repro.gcs.cluster import Cluster
from repro.obs.trace import TIERS

PROCS = ["p1", "p2", "p3"]
TO_REQUESTS = 4
CB_REQUESTS = 6


@pytest.fixture
def traced():
    cluster = Cluster(PROCS, seed=21, obs=True)
    cluster.start().settle(max_time=500.0)
    for i in range(TO_REQUESTS):
        cluster.bcast(PROCS[i % 3], ("t", i), ordering="to")
    for i in range(CB_REQUESTS):
        cluster.bcast(PROCS[i % 3], ("c", i), ordering="cb")
    cluster.settle(max_time=10000.0)
    return cluster


def test_tier_registry_names_both_towers():
    assert TIERS == {"msg": "to", "cbmsg": "cb"}


def test_rows_carry_their_tier(traced):
    rows = traced.obs.tracer.deliveries()
    by_tier = {"to": 0, "cb": 0}
    for row in rows:
        by_tier[row["tier"]] += 1
    assert by_tier["to"] == TO_REQUESTS * len(PROCS)
    assert by_tier["cb"] == CB_REQUESTS * len(PROCS)
    assert traced.obs.tracer.orphans() == []


def test_stage_decomposition_is_exact_per_tier(traced):
    for row in traced.obs.tracer.deliveries():
        stages = row["stages"]
        # The ordering stage is named after the tier; the substrate
        # stages are shared.
        assert set(stages) == {row["tier"], "dvs", "wire", "vs"}
        assert sum(stages.values()) == pytest.approx(
            row["total"], abs=1e-9
        )


def test_summary_breaks_out_tiers(traced):
    summary = traced.obs.tracer.stage_summary()
    assert summary["deliveries_by_tier"] == {
        "to": TO_REQUESTS * len(PROCS),
        "cb": CB_REQUESTS * len(PROCS),
    }
    assert summary["messages"] == TO_REQUESTS + CB_REQUESTS
    stages = summary["stages"]
    for name in ("wire", "vs", "dvs", "to", "cb", "total", "total.to",
                 "total.cb"):
        assert name in stages
        assert stages[name]["p50_ms"] >= 0

    def population(name):
        return stages[name]["count"]

    # Substrate stages span both tiers; ordering stages, and each
    # tier's end-to-end row, only their own.
    for tier in ("to", "cb"):
        assert population(tier) == summary["deliveries_by_tier"][tier]
        assert population("total." + tier) == population(tier)
    assert population("total") == population("to") + population("cb")


def test_cb_metrics_count_the_workload(traced):
    counts = traced.obs.counts
    assert counts["cbcast"] == CB_REQUESTS
    assert counts["cb_brcv"] == CB_REQUESTS * len(PROCS)
    total = traced.obs.tracer.stage_summary()["stages"]["total.cb"]
    assert total["count"] == CB_REQUESTS * len(PROCS)
    assert total["p50_ms"] > 0


def test_snapshot_is_json_serializable_with_tiers(traced):
    document = traced.obs.tracer.to_json_dict()
    encoded = json.loads(json.dumps(document))
    tiers = {row["tier"] for row in encoded["deliveries"]}
    assert tiers == {"to", "cb"}


def test_cb_probes_stay_out_of_the_checked_action_log(traced):
    assert not any(
        a.name in ("cb_label", "cb_deliver") for a in traced.log.actions
    )
