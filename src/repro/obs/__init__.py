"""Observability: causal tracing + metrics across sim and runtime.

One :class:`Observability` object bundles the two consumers every host
wires in the same way:

- a :class:`~repro.obs.trace.Tracer` stitching causal spans out of the
  identifiers already on the wire (message labels, view ids);
- a :class:`~repro.obs.metrics.MetricsRegistry` of counters, gauges
  and log-bucketed histograms.

Hosts feed it from exactly two hooks:

- :meth:`on_action` -- attached as the ``tracer`` of an
  :class:`~repro.gcs.recorder.ActionLog`, so every interface action the
  layers already record (plus the tracer-only ``probe`` events) flows
  in with the host's own clock.  The simulator gets spans *for free*
  through this hook alone.
- :meth:`wire_event` -- called by the transport (live TCP or the
  simulated network) when a frame leaves or reaches a node.

Everything is in-process and clock-free: time always arrives as an
argument, read from whichever clock the host runs on, so a simulated
run and a live run produce structurally identical traces.
"""

from collections import OrderedDict
from types import MappingProxyType

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.spans import SpanEvent, SpanRing
from repro.obs.trace import TIERS, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Observability",
    "SpanEvent",
    "SpanRing",
    "TIERS",
    "Tracer",
]

#: Bound on each tier's stitch key -> birth-time map feeding its
#: end-to-end latency histogram (the oldest labels are forgotten
#: beyond it).
_LATENCY_CAP = 8192

#: Recorded action / probe name -> the counter it bumps.
_COUNTERS = MappingProxyType({
    "bcast": "gcs.to.bcasts",
    "brcv": "gcs.to.deliveries",
    "cbcast": "gcs.cb.cbcasts",
    "cb_brcv": "gcs.cb.deliveries",
    "vs_newview": "gcs.vs.views_installed",
    "dvs_newview": "gcs.dvs.views_attempted",
    "dvs_register_view": "gcs.dvs.views_registered",
})


class Observability:
    """The tracer + metrics bundle a host arms on its stack."""

    def __init__(self):
        self.metrics = MetricsRegistry()
        self.tracer = Tracer()
        self._counters = {
            name: self.metrics.counter(metric)
            for name, metric in _COUNTERS.items()
        }
        #: Per ordering tier: when each span root was labelled, and the
        #: latency histogram its deliveries feed.
        self._born = {tier: OrderedDict() for tier in TIERS.values()}
        self._latency = {
            tier: self.metrics.histogram(
                "gcs.{0}.delivery_latency_s".format(tier)
            )
            for tier in TIERS.values()
        }

    # -- Host hooks --------------------------------------------------------

    def on_action(self, t, name, params):
        """ActionLog hook: spans plus the gcs-layer counters."""
        emitted = self.tracer.on_action(t, name, params)
        counter = self._counters.get(name)
        if counter is not None:
            counter.inc()
        if emitted is None or t is None:
            return
        # A span rooted at <tier>_label is born there; every
        # <tier>_deliver of the same stitch key observes its age.
        key, stage = emitted
        tier = TIERS.get(key[0])
        if tier is None:
            return
        born = self._born[tier]
        if stage == tier + "_label":
            born[key] = t
            while len(born) > _LATENCY_CAP:
                born.popitem(last=False)
        elif stage == tier + "_deliver" and key in born:
            self._latency[tier].observe(t - born[key])

    def wire_event(self, stage, pid, peer, msg, t):
        self.tracer.wire_event(stage, pid, peer, msg, t)

    # -- Reading -----------------------------------------------------------

    def snapshot(self):
        """Metrics plus the trace stage summary, JSON-ready."""
        metrics = self.metrics.snapshot()
        summary = self.tracer.stage_summary()
        views = self._counters["dvs_newview"].value
        derived = {
            "messages_per_view": (
                self._counters["brcv"].value / views if views else None
            ),
        }
        return {"metrics": metrics, "trace": summary, "derived": derived}
