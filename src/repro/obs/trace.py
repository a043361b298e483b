"""Causal span tracing across the VS -> DVS -> {TO, CB} towers.

One totally ordered client broadcast crosses the stack as::

    to_label     the TO layer mints the Label at the origin
    dvs_send     DVS-GPSND at the origin
    vs_send      VS-GPSND at the origin (forward to the sequencer)
    wire_send    the Data frame leaves the origin
    wire_recv    the Data frame reaches the sequencer
    vs_seq       the sequencer assigns the slot
    wire_send    the Ordered frame leaves the sequencer (per member)
    wire_recv    the Ordered frame reaches a member
    vs_deliver   VS-GPRCV at the member
    dvs_deliver  DVS-GPRCV at the member
    to_deliver   TO confirms and releases the payload (BRCV)

There is no Data hop when the origin is the sequencer, and a slot that
left in an ``OrderedRun`` gets its own wire events from that frame.

A causal broadcast crosses the same substrate with its own root and
release stages -- ``cb_label`` (the CB layer stamps the view-scoped
vector clock) down through the identical dvs/vs/wire stages up to
``cb_deliver`` (the hold-back queue releases the payload).  The stage
decomposition is *tier-agnostic*: every delivery decomposes as
``wire + vs + dvs + <tier> == total`` where ``<tier>`` is ``to`` or
``cb`` (see :data:`TIERS`).

The view lifecycle is traced as ``vs_round`` (connectivity change
starts a membership round) -> ``vs_form`` -> ``vs_install`` ->
``dvs_attempt`` -> ``to_established`` -> ``dvs_register``.

The tracer never invents identifiers: TO message spans stitch on the
:class:`~repro.to.summaries.Label` already carried inside Data/Ordered
payloads, CB spans on the ``(vid, seqno, origin)`` slot a
:class:`~repro.cb.messages.CbCast` determines, and view spans on the
:class:`~repro.core.viewids.ViewId` (plus the leader's round id, linked
to the view by the ``vs_form`` probe).  Both the simulator and the live
runtime therefore produce the same spans from the same wire traffic --
the tracer only listens.

Every event goes into one bounded log, in emission order; one grouping
pass stitches it at read time.
"""

import gc
import threading
from collections import deque
from types import MappingProxyType
from typing import Any, NamedTuple

from repro.cb.messages import CbCast
from repro.gcs.messages import Data, Install, Ordered, OrderedRun
from repro.to.summaries import Label

#: The log's bound, in events, over every node together.  Past it the
#: oldest event leaves and :meth:`Tracer.dropped` counts it; nothing is
#: preallocated.
LOG_EVENTS = 1 << 18

#: The stage table: recorded action or tracer-only probe name ->
#: ``(span stage, key tag)``.  Of every name the layers emit, the first
#: parameter is what the span is about (``vs_form`` alone names its
#: round first, its view second) and the last is the process.  A
#: ``None`` tag reads the stitch key hidden in a payload (protocol
#: traffic hides none and emits nothing); otherwise the key is the tag
#: with the view / round id.  Names absent here have no stage of their
#: own (tests/obs/test_vocabulary.py lists them).
ACTION_STAGES = MappingProxyType({
    "vs_gpsnd": ("vs_send", None),
    "dvs_gpsnd": ("dvs_send", None),
    "vs_gprcv": ("vs_deliver", None),
    "dvs_gprcv": ("dvs_deliver", None),
    "vs_seq": ("vs_seq", None),
    "to_label": ("to_label", None),
    "to_deliver": ("to_deliver", None),
    "cb_label": ("cb_label", None),
    "cb_deliver": ("cb_deliver", None),
    "vs_newview": ("vs_install", "view"),
    "dvs_newview": ("dvs_attempt", "view"),
    "to_established": ("to_established", "view"),
    "dvs_register_view": ("dvs_register", "view"),
    "vs_round": ("vs_round", "round"),
    "vs_form": ("vs_form", "view"),
})

#: Stitch-key tag -> ordering-tier name.  Each tier's span roots at
#: ``<tier>_label`` and completes at ``<tier>_deliver``; everything in
#: between (dvs/vs/wire) is tier-independent.
TIERS = MappingProxyType({"msg": "to", "cbmsg": "cb"})


class SpanEvent(NamedTuple):
    """One stage crossing, keyed for stitching.

    ``key`` is ``("msg", label)``, ``("cbmsg", slot)``, ``("view",
    view_id)`` or ``("round", round_id)``; ``peer`` is the far end of a
    wire event.  A tuple built positionally: emission sits on the
    runtime hot path."""

    key: Any
    stage: str
    pid: Any
    t: float
    peer: Any


def message_key(payload):
    """The stitching key hidden in a VS/DVS payload, or ``None``.

    CB casts key on their per-view slot ``(vid, seqno, origin)`` rather
    than the message object itself: the payload field may be unhashable,
    and the slot is exactly what CB content-consistency makes unique.
    """
    if isinstance(payload, Label):
        return ("msg", payload)
    if isinstance(payload, CbCast):
        return ("cbmsg", (payload.vid, payload.seqno, payload.origin))
    if (
        isinstance(payload, tuple)
        and len(payload) == 2
        and isinstance(payload[0], Label)
    ):
        return ("msg", payload[0])
    return None


def wire_keys(msg):
    """The stitching keys of a wire message: one per traced payload it
    carries (every entry of a sequencer run), none if untraced."""
    if isinstance(msg, Install):
        return [("view", msg.view.id)]
    if isinstance(msg, (Data, Ordered)):
        payloads = [msg.payload]
    elif isinstance(msg, OrderedRun):
        payloads = [payload for payload, _ in msg.entries]
    else:
        return []
    return [key for key in map(message_key, payloads) if key is not None]


def _delta(earlier, later):
    if earlier is None or later is None:
        return 0.0
    return later - earlier


def _percentile(values, fraction):
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(fraction * len(ordered)))
    return ordered[index]


def _first(events, stage, pid=None, peer=None):
    for event in events:
        if event.stage != stage:
            continue
        if pid is not None and event.pid != pid:
            continue
        if peer is not None and event.peer != peer:
            continue
        return event
    return None


def _last(events, stage, pid=None, peer=None):
    return _first(reversed(events), stage, pid=pid, peer=peer)


def _at(event):
    return None if event is None else event.t


#: Held while a stitch runs with the collector paused (see
#: :meth:`Tracer._stitch`).
_STITCHING = threading.Lock()


class Tracer:
    """Collects span events in one log and stitches them into causal
    spans.

    Single-threaded by contract: both hosts funnel every event through
    one thread (the simulator's driver or the runtime's event loop), so
    emission is an unsynchronized append.  A live reader takes a
    :meth:`copy` on the loop and stitches it on its own thread (the
    cluster facade does).
    """

    def __init__(self):
        self._log = deque(maxlen=LOG_EVENTS)
        self._emitted = 0
        #: ViewId -> the leader round that formed it (vs_form linkage).
        self._view_round = {}

    def copy(self):
        """A tracer holding what this one holds now, for reading on
        another thread while this one keeps recording."""
        twin = Tracer()
        twin._log = self._log.copy()
        twin._emitted = self._emitted
        twin._view_round = dict(self._view_round)
        return twin

    # -- Emission ----------------------------------------------------------

    def _emit(self, key, stage, pid, t, peer=None):
        self._emitted += 1
        self._log.append(SpanEvent(key, stage, pid, t, peer))

    def on_action(self, t, name, params):
        """Hook for :class:`~repro.gcs.recorder.ActionLog`: both the
        layers' interface actions and the tracer-only probes."""
        row = ACTION_STAGES.get(name)
        if row is None:
            return
        stage, tag = row
        subject, *rest = params
        if stage == "vs_form":
            # (round, view id, p): the span is the view's; remember
            # which leader round formed it.
            round_id, subject = subject, rest[0]
            self._view_round[subject] = round_id
        if tag is None:
            key = message_key(subject)
            if key is None:
                return
        else:
            key = (tag, getattr(subject, "id", subject))
        self._emit(key, stage, rest[-1], t)

    def wire_event(self, stage, pid, peer, msg, t):
        """A frame crossed the transport (``wire_send``/``wire_recv``)."""
        for key in wire_keys(msg):
            self._emit(key, stage, pid, t, peer)

    # -- Reading -----------------------------------------------------------

    def events(self):
        """Every event the log holds, in emission order."""
        return list(self._log)

    def dropped(self):
        """Events that left the log at its bound."""
        return self._emitted - len(self._log)

    def _by_key(self):
        """The log grouped by stitch key, each group in emission order."""
        grouped = {}
        for event in self._log:
            group = grouped.get(event.key)
            if group is None:
                grouped[event.key] = [event]
            else:
                group.append(event)
        return grouped

    def _stitch(self):
        """``(deliveries, orphans, view spans)`` from one grouping pass.

        The cyclic collector is paused meanwhile.  A stitch of a full log
        allocates a few hundred thousand containers, so collections come
        due all through it, each a pass over what the stitch has built so
        far; a pass holds the GIL, and a live reader stitches beside the
        event loop, which then misses its heartbeats (at ``LOG_EVENTS``
        a 2 ms ticker beside a first read waited 294 ms, and 25 ms with
        the collector paused; ``HB_TIMEOUT`` is 250 ms).  The stitch makes no cycles, so
        the pause leaves nothing behind.  Stitches take turns, so the
        one that paused the collector restores it, running or not, also
        when the stitch raises."""
        with _STITCHING:
            enabled = gc.isenabled()
            gc.disable()
            try:
                return self._stitch_paused()
            finally:
                if enabled:
                    gc.enable()

    def _stitch_paused(self):
        grouped = self._by_key()
        rows, orphans, views = [], [], []
        for key, events in grouped.items():
            if key[0] == "view":
                views.append(self._view_span(key[1], events, grouped))
                continue
            tier = TIERS.get(key[0])
            if tier is None:
                continue
            label_ev = _first(events, tier + "_label")
            if label_ev is None:
                orphans.extend(
                    (key[1], e.pid) for e in events
                    if e.stage == tier + "_deliver"
                )
            else:
                rows.extend(self._deliveries(tier, key[1], label_ev,
                                             events))
        rows.sort(key=lambda r: (r["tier"], str(r["label"]), r["dst"]))
        orphans.sort(key=lambda pair: (str(pair[0]), pair[1]))
        views.sort(key=lambda r: str(r["view"]))
        return rows, orphans, views

    @staticmethod
    def _deliveries(tier, label, label_ev, events):
        """The rows of one message span, one per delivery."""
        origin = label_ev.pid
        t0 = label_ev.t
        dvs_send = _at(_first(events, "dvs_send", pid=origin))
        vs_send = _at(_first(events, "vs_send", pid=origin))
        seq_ev = _first(events, "vs_seq")
        sequencer = None if seq_ev is None else seq_ev.pid
        hop1 = None
        if sequencer is not None and sequencer != origin:
            hop1 = (
                _first(events, "wire_send", pid=origin, peer=sequencer),
                _first(events, "wire_recv", pid=sequencer, peer=origin),
            )
        rows = []
        for deliver in events:
            if deliver.stage != tier + "_deliver":
                continue
            dst = deliver.pid
            vs_del = _at(_first(events, "vs_deliver", pid=dst))
            dvs_del = _at(_first(events, "dvs_deliver", pid=dst))
            hop2 = None
            if sequencer is not None and sequencer != dst:
                # _last: the Ordered frame is the newest wire pair on
                # this edge (the Data broadcast may share it).
                hop2 = (
                    _last(events, "wire_send", pid=sequencer, peer=dst),
                    _last(events, "wire_recv", pid=dst, peer=sequencer),
                )
            total = _delta(t0, deliver.t)
            tier_time = _delta(t0, dvs_send) + _delta(dvs_del, deliver.t)
            dvs_time = _delta(dvs_send, vs_send) + _delta(vs_del, dvs_del)
            wire_time = 0.0
            for hop in (hop1, hop2):
                if hop is not None and None not in hop:
                    wire_time += _delta(hop[0].t, hop[1].t)
            rows.append({
                "tier": tier,
                "label": label,
                "origin": origin,
                "dst": dst,
                "total": total,
                "stages": {
                    tier: tier_time,
                    "dvs": dvs_time,
                    "wire": wire_time,
                    "vs": total - tier_time - dvs_time - wire_time,
                },
            })
        return rows

    def _view_span(self, vid, events, grouped):
        stages = {}
        for event in events:
            if event.stage not in stages:
                stages[event.stage] = event.t
        round_id = self._view_round.get(vid)
        if round_id is not None:
            for event in grouped.get(("round", round_id), ()):
                if event.stage == "vs_round":
                    stages.setdefault("vs_round", event.t)
                    break
        known = [t for t in stages.values() if t is not None]
        return {
            "view": vid,
            "round": round_id,
            "stages": stages,
            "established_at": sorted(
                e.pid for e in events if e.stage == "to_established"
            ),
            "duration": (max(known) - min(known)) if known else None,
        }

    def deliveries(self):
        """One per-stage breakdown per ``(label, destination)`` pair.

        Tier-agnostic: a row's ``tier`` is ``"to"`` or ``"cb"`` and its
        ordering-layer stage is keyed by that tier name, so a TO
        delivery decomposes as ``wire + vs + dvs + to == total`` and a
        CB delivery as ``wire + vs + dvs + cb == total``.  Stage
        attribution (times in the host's clock unit, seconds):

        - ``to``/``cb`` -- labelling (Label mint / clock stamp) at the
          origin plus confirmation (TO confirm / hold-back release) at
          the destination;
        - ``dvs``  -- the primary filter, both directions;
        - ``wire`` -- transport time of the Data hop (origin ->
          sequencer) plus the ordering hop (sequencer -> destination,
          an ``Ordered`` or ``OrderedRun`` frame), with the sequencer
          identified by the ``vs_seq`` probe; a hop that never touched
          the wire (self-send local loopback, or a hop whose endpoints
          coincide) costs 0;
        - ``vs``   -- the residual, so the four stages sum *exactly*
          to ``total`` per delivery (sequencing, acks and stability
          live here).
        """
        return self._stitch()[0]

    def orphans(self):
        """Deliveries whose span has no ``to_label``/``cb_label`` root
        -- with the log sized to the run, there must be none."""
        return self._stitch()[1]

    def view_spans(self):
        """One record per attempted/established view."""
        return self._stitch()[2]

    def stage_summary(self):
        """Aggregate per-stage statistics over all message deliveries.

        ``stages`` holds the four stages, ``total`` over every delivery,
        and ``total.<tier>`` over that tier's deliveries alone: the
        end-to-end latency of each ordering tier."""
        return self._summary(*self._stitch())

    def _summary(self, rows, orphans, views):
        tiers = sorted(set(TIERS.values()))
        summary = {
            "deliveries": len(rows),
            "deliveries_by_tier": {
                tier: sum(1 for r in rows if r["tier"] == tier)
                for tier in tiers
            },
            "messages": len({
                (r["tier"], str(r["label"])) for r in rows
            }),
            "orphans": len(orphans),
            "views": len(views),
            "events_dropped": self.dropped(),
            "stages": {},
        }
        columns = {
            stage: [r["stages"][stage] for r in rows if stage in r["stages"]]
            for stage in ("wire", "vs", "dvs", "to", "cb")
        }
        columns["total"] = [r["total"] for r in rows]
        for tier in tiers:
            columns["total." + tier] = [
                r["total"] for r in rows if r["tier"] == tier
            ]
        for stage, values in columns.items():
            if not values:
                continue
            summary["stages"][stage] = {
                "count": len(values),
                "mean_ms": 1e3 * sum(values) / len(values),
                "p50_ms": 1e3 * _percentile(values, 0.50),
                "p95_ms": 1e3 * _percentile(values, 0.95),
                "max_ms": 1e3 * max(values),
            }
        return summary

    # -- Export ------------------------------------------------------------

    @staticmethod
    def _label_json(label):
        """JSON form of a span root: a TO :class:`Label` or a CB
        ``(vid, seqno, origin)`` slot -- the same three coordinates."""
        if isinstance(label, Label):
            return {
                "vid": str(label.id),
                "seqno": label.seqno,
                "origin": label.origin,
            }
        vid, seqno, origin = label
        return {"vid": str(vid), "seqno": seqno, "origin": origin}

    def to_json_dict(self):
        """The full trace as JSON-ready data (spans, views, summary)."""
        rows, orphans, views = self._stitch()
        deliveries = [
            {
                "tier": row["tier"],
                "label": self._label_json(row["label"]),
                "origin": row["origin"],
                "dst": row["dst"],
                "total_ms": 1e3 * row["total"],
                "stages_ms": {
                    stage: 1e3 * value
                    for stage, value in sorted(row["stages"].items())
                },
            }
            for row in rows
        ]
        view_json = [
            {
                "view": str(record["view"]),
                "round": (
                    None if record["round"] is None
                    else list(record["round"])
                ),
                "stages": {
                    stage: record["stages"][stage]
                    for stage in sorted(record["stages"])
                },
                "established_at": record["established_at"],
                "duration_s": record["duration"],
            }
            for record in views
        ]
        return {
            "events": len(self._log),
            "events_dropped": self.dropped(),
            "summary": self._summary(rows, orphans, views),
            "deliveries": deliveries,
            "views": view_json,
            "orphans": [
                {"label": self._label_json(label), "dst": dst}
                for label, dst in orphans
            ],
        }
