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

Every node appends into its own :class:`~repro.obs.spans.SpanRing`;
stitching happens lazily at read time over ring snapshots.
"""

from types import MappingProxyType

from repro.cb.messages import CbCast
from repro.gcs.messages import Data, Install, Ordered, OrderedRun
from repro.obs.spans import SpanEvent, SpanRing
from repro.to.summaries import Label

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


class Tracer:
    """Collects span events and stitches them into causal spans.

    Single-threaded by contract: both hosts funnel every event through
    one thread (the simulator's driver or the runtime's event loop), so
    emission is an unsynchronized ring append.  Readers in the live
    runtime must marshal onto the loop (the cluster facade does).
    """

    def __init__(self, ring_size=65536):
        self.ring_size = ring_size
        self._rings = {}
        self._seq = 0
        #: ViewId -> the leader round that formed it (vs_form linkage).
        self._view_round = {}

    # -- Emission ----------------------------------------------------------

    def ring(self, pid):
        ring = self._rings.get(pid)
        if ring is None:
            ring = SpanRing(self.ring_size)
            self._rings[pid] = ring
        return ring

    def _emit(self, key, stage, pid, t, peer=None):
        self._seq += 1
        self.ring(pid).append(
            SpanEvent(key=key, stage=stage, pid=pid, t=t,
                      seq=self._seq, peer=peer)
        )

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
            self._emit(key, stage, pid, t, peer=peer)

    # -- Reading -----------------------------------------------------------

    def events(self):
        """Every live event across all rings, in emission order."""
        merged = []
        for pid in sorted(self._rings):
            merged.extend(self._rings[pid].snapshot())
        merged.sort(key=lambda e: e.seq)
        return merged

    def dropped(self):
        return sum(r.dropped for r in self._rings.values())

    def _by_key(self):
        grouped = {}
        for event in self.events():
            grouped.setdefault(event.key, []).append(event)
        return grouped

    @staticmethod
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

    @classmethod
    def _last(cls, events, stage, pid=None, peer=None):
        return cls._first(list(reversed(events)), stage, pid=pid,
                          peer=peer)

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
        rows = []
        for key, events in self._by_key().items():
            tier = TIERS.get(key[0])
            if tier is None:
                continue
            label = key[1]
            label_ev = self._first(events, tier + "_label")
            delivers = [
                e for e in events if e.stage == tier + "_deliver"
            ]
            if label_ev is None:
                continue
            origin = label_ev.pid
            t0 = label_ev.t
            dvs_send = self._first(events, "dvs_send", pid=origin)
            vs_send = self._first(events, "vs_send", pid=origin)
            seq_ev = self._first(events, "vs_seq")
            sequencer = None if seq_ev is None else seq_ev.pid
            hop1 = None
            if sequencer is not None and sequencer != origin:
                hop1 = (
                    self._first(events, "wire_send", pid=origin,
                                peer=sequencer),
                    self._first(events, "wire_recv", pid=sequencer,
                                peer=origin),
                )
            for deliver in delivers:
                dst = deliver.pid
                vs_del = self._first(events, "vs_deliver", pid=dst)
                dvs_del = self._first(events, "dvs_deliver", pid=dst)
                hop2 = None
                if sequencer is not None and sequencer != dst:
                    # _last: the Ordered frame is the newest wire pair
                    # on this edge (the Data broadcast may share it).
                    hop2 = (
                        self._last(events, "wire_send", pid=sequencer,
                                   peer=dst),
                        self._last(events, "wire_recv", pid=dst,
                                   peer=sequencer),
                    )
                total = _delta(t0, deliver.t)
                tier_time = (
                    _delta(t0, None if dvs_send is None else dvs_send.t)
                    + _delta(
                        None if dvs_del is None else dvs_del.t, deliver.t
                    )
                )
                dvs_time = _delta(
                    None if dvs_send is None else dvs_send.t,
                    None if vs_send is None else vs_send.t,
                ) + _delta(
                    None if vs_del is None else vs_del.t,
                    None if dvs_del is None else dvs_del.t,
                )
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
        rows.sort(key=lambda r: (r["tier"], str(r["label"]), r["dst"]))
        return rows

    def orphans(self):
        """Deliveries whose span has no ``to_label``/``cb_label`` root
        -- with the rings sized to the run, there must be none."""
        bad = []
        for key, events in self._by_key().items():
            tier = TIERS.get(key[0])
            if tier is None:
                continue
            if self._first(events, tier + "_label") is not None:
                continue
            for event in events:
                if event.stage == tier + "_deliver":
                    bad.append((key[1], event.pid))
        return sorted(bad, key=lambda pair: (str(pair[0]), pair[1]))

    def view_spans(self):
        """One record per attempted/established view."""
        grouped = self._by_key()
        records = []
        for key, events in grouped.items():
            if key[0] != "view":
                continue
            vid = key[1]
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
            records.append({
                "view": vid,
                "round": round_id,
                "stages": stages,
                "established_at": sorted(
                    e.pid for e in events if e.stage == "to_established"
                ),
                "duration": (max(known) - min(known)) if known else None,
            })
        records.sort(key=lambda r: str(r["view"]))
        return records

    def stage_summary(self):
        """Aggregate per-stage statistics over all message deliveries.

        ``stages`` holds the four stages, ``total`` over every delivery,
        and ``total.<tier>`` over that tier's deliveries alone: the
        end-to-end latency of each ordering tier."""
        rows = self.deliveries()
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
            "orphans": len(self.orphans()),
            "views": sum(1 for k in self._by_key() if k[0] == "view"),
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
            for row in self.deliveries()
        ]
        views = [
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
            for record in self.view_spans()
        ]
        return {
            "ring_size": self.ring_size,
            "events": sum(len(r) for r in self._rings.values()),
            "events_dropped": self.dropped(),
            "summary": self.stage_summary(),
            "deliveries": deliveries,
            "views": views,
            "orphans": [
                {"label": self._label_json(label), "dst": dst}
                for label, dst in self.orphans()
            ],
        }
