"""Differential tests: the TO and CB layers against the automata they
recode (ROADMAP item 6(a), the guard item 3 wants before it touches
``ToLayer``'s history).

Same harness as :mod:`tests.gcs.test_dvs_differential`, one tier up: a
seeded simulated cluster runs the full tower through formation, a
partition with sends in flight, a heal and the state exchanges those
force; each process's recorded *inputs* (client broadcasts and what its
DVS layer reported upward) are then replayed into ``DVS-TO-TO_p``
(Figure 5) or ``DVS-TO-CB_p``, firing enabled locally controlled actions
to quiescence after every input, and the automaton must release the
same ``brcv`` / ``cb_brcv`` sequence, each after the same input.

Only the releases are compared.  ``dvs_gpsnd`` differs by design (the
layer labels lazily, when it can also send; Figure 5 labels as soon as
it has a view) and ``dvs_register`` is recorded below the fanout, once
both tiers have registered.
"""

import pytest

from repro.cb.dvs_to_cb import DvsToCb
from repro.cb.messages import CbCast
from repro.gcs.cluster import Cluster
from repro.ioa import act
from repro.to.dvs_to_to import DvsToTo
from repro.to.summaries import Summary

from tests.gcs.test_dvs_differential import PROCS, at, automaton_trace

FROM_DVS = ("dvs_newview", "dvs_gprcv", "dvs_safe")


def run_script(ordering, seed):
    """Formation; bursts; a partition with sends in flight; bursts on
    both sides; a heal with sends in flight; bursts from everyone."""
    cluster = Cluster(PROCS, seed=seed).start()
    sent = [0]

    def burst(senders, each):
        for _ in range(each):
            for pid in senders:
                cluster.bcast(pid, ("m", pid, sent[0]), ordering=ordering)
                sent[0] += 1

    cluster.settle(max_time=400.0)
    burst(["a", "c", "e"], each=4)
    cluster.settle(max_time=400.0)
    cluster.partition("abc", "de")
    burst(["a", "d"], each=2)
    cluster.settle(max_time=400.0)
    burst(["b", "e"], each=3)
    cluster.settle(max_time=400.0)
    cluster.heal()
    burst(["c", "d"], each=2)
    cluster.settle(max_time=400.0)
    burst(PROCS, each=2)
    cluster.settle(max_time=400.0)
    return cluster


def exchanged(log, pid, kind):
    """The ``kind`` messages DVS delivered at ``pid``."""
    return [
        m for m, _ in log.at("dvs_gprcv", pid) if isinstance(m, kind)
    ]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_to_layer_and_figure_5_release_the_same_brcv_sequence(seed):
    cluster = run_script("to", seed)
    log, v0 = cluster.log, cluster.initial_view
    inputs = ("bcast",) + FROM_DVS
    for pid in PROCS:
        assert automaton_trace(
            DvsToTo(pid, v0), at(log, pid, inputs), observed=("brcv",)
        ) == at(log, pid, inputs + ("brcv",)), pid

    # The script reached what it is there to compare: two view changes
    # at a, each with a full state exchange, and the minority's payloads
    # (never confirmed there) recovered into the common order.
    views = [view for (view,) in log.at("dvs_newview", "a")]
    assert len(views) >= 2 and views[-1].set == frozenset(PROCS)
    assert len(exchanged(log, "a", Summary)) >= len(views[0].set) + 5
    delivered = cluster.delivered("a")
    assert len(delivered) == 36 and cluster.delivered("e") == delivered
    assert any(origin == "d" for _, origin in delivered)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cb_layer_and_automaton_release_the_same_cb_brcv_sequence(seed):
    cluster = run_script("cb", seed)
    log, v0 = cluster.log, cluster.initial_view
    inputs = ("cbcast",) + FROM_DVS

    def layer_trace(pid):
        # The layer logs the whole cast; the automaton's action carries
        # the payload (CB-BRCV(a)_{q,p}).
        return [
            act("cb_brcv", a.params[0].payload, *a.params[1:])
            if a.name == "cb_brcv" else a
            for a in at(log, pid, inputs + ("cb_brcv",))
        ]

    for pid in PROCS:
        assert automaton_trace(
            DvsToCb(pid, v0), at(log, pid, inputs), observed=("cb_brcv",)
        ) == layer_trace(pid), pid

    # Reached: casts of three different views delivered at a (CB's state
    # exchange is "reset the clock and register"), hold-back exercised by
    # the majority side only seeing its own partition's casts.
    vids = {m.vid for m in exchanged(log, "a", CbCast)}
    assert len(vids) >= 3
    assert len(cluster.cb_delivered("a")) > len(cluster.cb_delivered("e")) > 0
