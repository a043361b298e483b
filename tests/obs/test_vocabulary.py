"""The layers' action vocabulary, seen from the observing side.

"The process is the last parameter" is what lets the tracer be one
table and :meth:`~repro.gcs.recorder.ActionLog.at` one filter; these
tests pin the other half of that contract: every name the layers
record or probe is either a row of the tracer's stage table or in its
explicit no-span list, on the source text and on a run that crosses a
partition and a heal.
"""

import inspect
import re

import pytest

from repro.gcs import cb_layer, dvs_layer, to_layer, vs_stack
from repro.gcs.cluster import Cluster
from repro.gcs.tower import alternating
from repro.obs import Observability
from repro.obs.trace import ACTION_STAGES

PROCS = ["p1", "p2", "p3", "p4"]
#: What the layers emit with no span stage of its own: the client-facing
#: actions (their ``*_label`` / ``*_deliver`` probes carry the stitch
#: key), ``dvs_register`` (its ``dvs_register_view`` probe names the
#: view) and the DVS stability indication.
NO_SPAN = {
    "bcast", "brcv", "cbcast", "cb_brcv", "dvs_register", "dvs_safe",
}
VOCABULARY = set(ACTION_STAGES) | NO_SPAN


@pytest.fixture(scope="module")
def run():
    obs = Observability()
    seen = set()
    on_action = obs.on_action

    def spy(t, name, params):
        seen.add(name)
        on_action(t, name, params)

    obs.on_action = spy
    cluster = Cluster(PROCS, seed=19, obs=obs)
    cluster.start().settle(max_time=500.0)
    for i in range(6):
        cluster.bcast(PROCS[i % 4], ("a", i), ordering=alternating(i))
    cluster.settle(max_time=5000.0)
    cluster.partition(["p1", "p2", "p3"], ["p4"]).settle(max_time=5000.0)
    for i in range(6):
        cluster.bcast(PROCS[i % 3], ("b", i), ordering=alternating(i))
    cluster.settle(max_time=5000.0)
    cluster.heal().settle(max_time=5000.0)
    cluster.bcast("p4", ("c", 0), ordering="to")
    cluster.settle(max_time=5000.0)
    return cluster, seen


def test_every_emitted_name_has_a_row_or_is_listed_as_spanless(run):
    in_source = set()
    for module in (vs_stack, dvs_layer, to_layer, cb_layer):
        in_source |= set(re.findall(
            r'_(?:record|probe)\(\s*"(\w+)"', inspect.getsource(module)
        ))
    assert in_source == VOCABULARY
    assert not set(ACTION_STAGES) & NO_SPAN

    _, seen = run
    assert seen <= VOCABULARY
    # No dead row: the run exercises every stage the table names.
    assert set(ACTION_STAGES) <= seen


def test_every_delivery_decomposes_and_none_is_orphaned(run):
    cluster, _ = run
    tracer = cluster.obs.tracer
    rows = tracer.deliveries()
    assert {row["tier"] for row in rows} == {"to", "cb"}
    for row in rows:
        stages = row["stages"]
        assert set(stages) == {"wire", "vs", "dvs", row["tier"]}
        assert sum(stages.values()) == pytest.approx(row["total"], abs=1e-9)
    assert tracer.orphans() == []
    assert tracer.dropped() == 0


def test_action_log_at_agrees_with_a_positional_filter(run):
    cluster, _ = run
    actions = cluster.log.actions
    for pid in PROCS:
        assert cluster.log.at("brcv", pid) == [
            (a.params[0], a.params[1]) for a in actions
            if a.name == "brcv" and a.params[2] == pid
        ]
        assert cluster.log.at("cb_brcv", pid) == [
            (a.params[0], a.params[1]) for a in actions
            if a.name == "cb_brcv" and a.params[2] == pid
        ]
        assert cluster.log.at("dvs_newview", pid) == [
            (a.params[0],) for a in actions
            if a.name == "dvs_newview" and a.params[1] == pid
        ]
        assert cluster.delivered(pid) == cluster.log.at("brcv", pid)
        assert len(cluster.primary_views(pid)) >= 2
    # A one-parameter action is all subscript: nothing is left of it.
    registers = [a for a in actions if a.name == "dvs_register"]
    assert registers and cluster.log.at("dvs_register", "p1") == [()] * len(
        [a for a in registers if a.params == ("p1",)]
    )
    assert cluster.cb_delivered("p1")
