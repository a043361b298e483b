"""Unit tests for the tracer's one log and its stitching logic, on
hand-built event sequences (no cluster)."""

import gc

import pytest

from repro.core.viewids import ViewId
from repro.gcs.messages import Data, Ordered, OrderedRun
from repro.obs import LOG_EVENTS, Tracer
from repro.obs import trace as trace_module
from repro.to.summaries import Label

VID = ViewId(1, "p1")
LABEL = Label(VID, 1, "p1")


def _emit_labels(tracer, count):
    """``count`` to_label events, one per seqno, alternating nodes."""
    labels = [Label(VID, i + 1, "p1") for i in range(count)]
    for i, label in enumerate(labels):
        tracer.on_action(float(i), "to_label", (label, "p{0}".format(i % 3)))
    return labels


def test_log_keeps_everything_below_its_bound():
    tracer = Tracer()
    labels = _emit_labels(tracer, 5)
    assert [e.key for e in tracer.events()] == [("msg", l) for l in labels]
    assert tracer.dropped() == 0
    assert tracer.to_json_dict()["events"] == 5


def test_log_overflow_keeps_the_newest_in_emission_order(monkeypatch):
    """One bound over every node: past it the oldest events leave,
    whichever node emitted them, and ``dropped()`` counts them."""
    monkeypatch.setattr(trace_module, "LOG_EVENTS", 4)
    tracer = Tracer()
    labels = _emit_labels(tracer, 10)
    assert [e.key for e in tracer.events()] == [
        ("msg", l) for l in labels[6:]
    ]
    assert [e.pid for e in tracer.events()] == ["p0", "p1", "p2", "p0"]
    assert tracer.dropped() == 6
    data = tracer.to_json_dict()
    assert (data["events"], data["events_dropped"]) == (4, 6)
    assert data["summary"]["events_dropped"] == 6


def test_log_bound_is_one_constant_over_every_node():
    """At least what three per-node rings of 65,536 held, and nothing
    allocated up front."""
    assert LOG_EVENTS >= 3 * 65536
    tracer = Tracer()
    assert tracer._log.maxlen == LOG_EVENTS
    assert len(tracer._log) == 0


def test_one_read_groups_the_events_once(monkeypatch):
    """``to_json_dict()`` builds deliveries, orphans, view spans and the
    summary from a single grouping of the log."""
    tracer = Tracer()
    _feed_full_span(tracer)
    tracer.on_action(16.0, "to_deliver", (Label(VID, 9, "p2"), "p3"))
    calls = []
    grouped = Tracer._by_key

    def counting(self):
        calls.append(1)
        return grouped(self)

    monkeypatch.setattr(Tracer, "_by_key", counting)
    data = tracer.to_json_dict()
    assert len(calls) == 1
    assert data["summary"]["deliveries"] == 1
    assert data["summary"]["orphans"] == 1


def test_a_copy_is_detached_from_the_hooks():
    tracer = Tracer()
    _feed_full_span(tracer)
    twin = tracer.copy()
    tracer.on_action(20.0, "to_deliver", (LABEL, "p2"))
    assert len(twin.events()) == len(tracer.events()) - 1
    assert twin.to_json_dict()["summary"]["deliveries"] == 1
    assert tracer.to_json_dict()["summary"]["deliveries"] == 2


def _feed_full_span(tracer, dst="p3"):
    """Emit one complete broadcast span for LABEL: origin p1 forwards
    Data to sequencer p2, which orders it for ``dst``."""
    payload = (LABEL, "hello")
    tracer.on_action(1.0, "to_label", (LABEL, "p1"))
    tracer.on_action(2.0, "dvs_gpsnd", (payload, "p1"))
    tracer.on_action(3.0, "vs_gpsnd", (payload, "p1"))
    data = Data(VID, payload, "p1", 1)
    ordered = Ordered(VID, 1, payload, "p2")
    tracer.wire_event("wire_send", "p1", "p2", data, 4.0)
    tracer.wire_event("wire_recv", "p2", "p1", data, 6.0)
    tracer.on_action(7.0, "vs_seq", (payload, "p2"))
    tracer.wire_event("wire_send", "p2", dst, ordered, 8.0)
    tracer.wire_event("wire_recv", dst, "p2", ordered, 11.0)
    tracer.on_action(12.0, "vs_gprcv", (payload, "p1", dst))
    tracer.on_action(13.0, "dvs_gprcv", (payload, "p1", dst))
    tracer.on_action(15.0, "to_deliver", (LABEL, dst))


def test_tracer_stitches_one_delivery_with_exact_stage_sum():
    tracer = Tracer()
    _feed_full_span(tracer, "p3")
    rows = tracer.deliveries()
    assert len(rows) == 1
    row = rows[0]
    assert row["label"] == LABEL
    assert row["origin"] == "p1"
    assert row["dst"] == "p3"
    assert row["total"] == 14.0
    # to: label->dvs_send (1) + dvs_deliver->deliver (2) = 3
    # dvs: dvs_send->vs_send (1) + vs_deliver->dvs_deliver (1) = 2
    # wire: both hops (2 + 3) = 5; vs is the exact residual.
    assert row["stages"]["to"] == 3.0
    assert row["stages"]["dvs"] == 2.0
    assert row["stages"]["wire"] == 5.0
    assert row["stages"]["vs"] == 4.0
    assert sum(row["stages"].values()) == row["total"]
    assert tracer.orphans() == []


def test_tracer_flags_orphan_deliveries():
    tracer = Tracer()
    # A delivery with no to_label root (its origin's ring was lost).
    tracer.on_action(5.0, "to_deliver", (LABEL, "p3"))
    assert tracer.orphans() == [(LABEL, "p3")]
    assert tracer.deliveries() == []
    summary = tracer.stage_summary()
    assert summary["orphans"] == 1
    assert summary["deliveries"] == 0


def test_a_run_frame_stitches_every_entry_it_carries():
    """One OrderedRun frame is one wire event per traced entry; an
    untraced entry (protocol traffic) adds none.  Both deliveries keep
    ``wire + vs + dvs + to == total`` exact, with the run's wire time."""
    tracer = Tracer()
    other = Label(VID, 2, "p2")
    entries = ((LABEL, "a"), "untraced", (other, "b"))
    tracer.on_action(1.0, "to_label", (LABEL, "p1"))
    tracer.on_action(1.5, "to_label", (other, "p2"))
    for payload in (entries[0], entries[2]):
        tracer.on_action(7.0, "vs_seq", (payload, "p1"))
    run = OrderedRun(VID, 4, tuple((p, "p1") for p in entries))
    tracer.wire_event("wire_send", "p1", "p3", run, 8.0)
    tracer.wire_event("wire_recv", "p3", "p1", run, 11.0)
    for label in (LABEL, other):
        tracer.on_action(15.0, "to_deliver", (label, "p3"))
    assert len([e for e in tracer.events() if e.stage == "wire_recv"]) == 2
    rows = tracer.deliveries()
    assert [row["label"] for row in rows] == [LABEL, other]
    for row in rows:
        assert row["stages"]["wire"] == 3.0
        assert sum(row["stages"].values()) == row["total"]
    assert tracer.orphans() == []


def test_tracer_untraced_wire_messages_are_ignored():
    from repro.runtime.codec import Heartbeat

    tracer = Tracer()
    tracer.wire_event("wire_send", "p1", "p2", Heartbeat(), 1.0)
    tracer.wire_event("wire_send", "p1", "p2", object(), 1.0)
    assert tracer.events() == []


def test_view_span_links_round_via_vs_form():
    tracer = Tracer()
    round_id = ("p1", 7)
    tracer.on_action(1.0, "vs_round", (round_id, "p1"))
    tracer.on_action(2.0, "vs_form", (round_id, VID, "p1"))
    tracer.on_action(3.0, "vs_newview", (_FakeView(VID), "p1"))
    tracer.on_action(4.0, "dvs_newview", (_FakeView(VID), "p1"))
    tracer.on_action(5.0, "to_established", (VID, "p1"))
    tracer.on_action(6.0, "dvs_register_view", (VID, "p1"))
    spans = tracer.view_spans()
    assert len(spans) == 1
    span = spans[0]
    assert span["view"] == VID
    assert span["round"] == round_id
    assert span["established_at"] == ["p1"]
    # vs_round is pulled in through the vs_form linkage, so the span
    # covers connectivity-change -> REGISTER.
    assert span["stages"]["vs_round"] == 1.0
    assert span["stages"]["dvs_register"] == 6.0
    assert span["duration"] == 5.0


class _FakeView:
    def __init__(self, vid):
        self.id = vid


def test_to_json_dict_is_json_serializable():
    import json

    tracer = Tracer()
    _feed_full_span(tracer)
    data = tracer.to_json_dict()
    encoded = json.dumps(data, sort_keys=True)
    assert "stages_ms" in encoded
    assert data["summary"]["deliveries"] == 1
    assert data["deliveries"][0]["total_ms"] == 14000.0


def test_the_stitch_pauses_the_collector_and_restores_it(monkeypatch):
    """A stitch runs with the cyclic collector off (a pass over the
    stitch's allocations holds the GIL the live loop needs) and leaves
    it as it found it: on, off, or on after the stitch raised."""
    tracer = Tracer()
    _feed_full_span(tracer)
    seen = []
    grouped = Tracer._by_key

    def watched(self):
        seen.append(gc.isenabled())
        return grouped(self)

    monkeypatch.setattr(Tracer, "_by_key", watched)
    was = gc.isenabled()
    try:
        gc.enable()
        assert tracer.to_json_dict()["summary"]["deliveries"] == 1
        assert gc.isenabled()
        gc.disable()
        tracer.deliveries()
        assert not gc.isenabled()
        gc.enable()

        def broken(self):
            seen.append(gc.isenabled())
            raise RuntimeError("stitch failed")

        monkeypatch.setattr(Tracer, "_by_key", broken)
        with pytest.raises(RuntimeError, match="stitch failed"):
            tracer.stage_summary()
        assert gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [False, False, False]
