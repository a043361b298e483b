"""Tier-1 contract: the layer methods gcsbench brackets are entered as
often as the benchmark's spans and counts assume.

``test_bench_surface.py`` checks that every bracketed name exists; this
file checks that a run still *enters* them.  gcsbench patches each
method of :data:`~tests.runtime.test_bench_surface.PATCHED` on its
class, so a fast path that calls a helper directly, or caches a bound
method across a run, silently drops a span or a count (``dvs.safes_per_req``
is the number of ``DvsFanout.on_dvs_safe`` calls).  Here the same
methods are wrapped with counters on a small deterministic simulated
:class:`~repro.gcs.cluster.Cluster`, and the counts are pinned: one
entry per payload per layer, as the message path has always made them.
"""

import functools

import pytest

from repro.gcs.cluster import Cluster
from tests.runtime.test_bench_surface import PATCHED, _load

#: The classes of the message path whose brackets the counts pin.
LAYERS = (
    ("repro.gcs.vs_stack", "VsStackNode"),
    ("repro.gcs.dvs_layer", "DvsLayer"),
    ("repro.gcs.cb_layer", "DvsFanout"),
    ("repro.gcs.to_layer", "ToLayer"),
    ("repro.gcs.cb_layer", "CbLayer"),
)


def _count_calls(monkeypatch, keys):
    """Wrap every ``PATCHED`` method of ``keys`` on its class (as
    gcsbench does) with a counter; returns ``{"Class.method": n}``."""
    counts = {}
    for key in keys:
        cls = _load(*key)
        for name in PATCHED[key]:
            label = "{0}.{1}".format(cls.__name__, name)
            counts[label] = 0
            original = getattr(cls, name)

            def counted(*args, _original=original, _label=label, **kwargs):
                counts[_label] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(
                cls, name, functools.wraps(original)(counted)
            )
    return counts


def _drive(pids, requests, recording):
    """Start a cluster and settle; then ``requests`` sends from every pid
    in turn (even ones through TO, odd ones through CB): the first half
    settled one by one, the rest as one burst, so the sequencer orders
    them in runs.  Without ``recording`` every layer's recorder is
    detached, as on the benchmark's end-to-end runs."""
    cluster = Cluster(pids, seed=3)
    if not recording:
        for tower in cluster.towers.values():
            for layer in (tower.stack, tower.dvs, tower.to, tower.cb):
                layer.recorder = None
    cluster.start().settle(max_time=100)
    for i in range(requests):
        pid = pids[i % len(pids)]
        cluster.bcast(pid, ("put", i), "to" if i % 2 == 0 else "cb")
        if i < requests // 2:
            cluster.settle(max_time=100)
    cluster.settle(max_time=100)
    return cluster


#: Calls per bracketed method, ``(pids, requests) -> {method: count}``:
#: what the message path makes with every frame buffered, unchanged by
#: the in-order fast path, and the same with or without a recorder.
#: Per delivered payload: one ``DvsLayer.on_vs_gprcv``, one
#: ``DvsFanout.on_dvs_gprcv`` and one ``DvsFanout.on_dvs_safe`` per
#: member, plus the acks, infos and state summaries of the one view
#: change.  ``DvsLayer.on_vs_safe`` is never
#: entered (nothing reports VS stability), so it is absent.
EXPECTED = {
    (("n1",), 8): {
        "CbLayer.cbcast": 4,
        "CbLayer.on_dvs_gprcv": 4,
        "CbLayer.on_dvs_newview": 1,
        "CbLayer.on_dvs_safe": 4,
        "DvsFanout.on_dvs_gprcv": 9,
        "DvsFanout.on_dvs_newview": 1,
        "DvsFanout.on_dvs_safe": 9,
        "DvsLayer.gpsnd": 9,
        "DvsLayer.on_vs_gprcv": 15,
        "DvsLayer.on_vs_newview": 1,
        "DvsLayer.register": 1,
        "ToLayer.bcast": 4,
        "ToLayer.on_dvs_gprcv": 5,
        "ToLayer.on_dvs_newview": 1,
        "ToLayer.on_dvs_safe": 5,
        "VsStackNode.broadcast": 12,
        "VsStackNode.gpsnd": 15,
        "VsStackNode.on_connectivity": 1,
        "VsStackNode.on_message": 13,
        "VsStackNode.on_timer": 10,
        "VsStackNode.send": 1,
    },
    (("n1", "n2", "n3"), 12): {
        "CbLayer.cbcast": 6,
        "CbLayer.on_dvs_gprcv": 18,
        "CbLayer.on_dvs_newview": 3,
        "CbLayer.on_dvs_safe": 18,
        "DvsFanout.on_dvs_gprcv": 45,
        "DvsFanout.on_dvs_newview": 3,
        "DvsFanout.on_dvs_safe": 45,
        "DvsLayer.gpsnd": 15,
        "DvsLayer.on_vs_gprcv": 129,
        "DvsLayer.on_vs_newview": 3,
        "DvsLayer.register": 3,
        "ToLayer.bcast": 6,
        "ToLayer.on_dvs_gprcv": 27,
        "ToLayer.on_dvs_newview": 3,
        "ToLayer.on_dvs_safe": 27,
        "VsStackNode.broadcast": 44,
        "VsStackNode.gpsnd": 43,
        "VsStackNode.on_connectivity": 3,
        "VsStackNode.on_message": 163,
        "VsStackNode.on_timer": 42,
        "VsStackNode.send": 31,
    },
}


@pytest.mark.parametrize("recording", [True, False], ids=["log", "bare"])
@pytest.mark.parametrize(
    "pids,requests", sorted(EXPECTED), ids=["n1", "n3"]
)
def test_bracket_entries_match_the_pinned_counts(
    monkeypatch, pids, requests, recording
):
    counts = _count_calls(monkeypatch, LAYERS)
    cluster = _drive(list(pids), requests, recording)
    delivered = sum(len(cluster.to[p].order) for p in pids)
    assert delivered == len(pids) * ((requests + 1) // 2)
    assert {k: n for k, n in counts.items() if n} == EXPECTED[
        (pids, requests)
    ]


def test_a_recorder_sees_what_it_saw(monkeypatch):
    counts = _count_calls(
        monkeypatch, [("repro.gcs.recorder", "ActionLog")]
    )
    cluster = _drive(["n1", "n2", "n3"], 12, recording=True)
    assert counts == {"ActionLog.record": 334, "ActionLog.probe": 99}
    assert len(cluster.log) == 334
