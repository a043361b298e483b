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

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.spans import SpanEvent, SpanRing
from repro.obs.trace import (
    MESSAGE_STAGES,
    TIERS,
    VIEW_STAGES,
    Tracer,
    message_key,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MESSAGE_STAGES",
    "MetricsRegistry",
    "Observability",
    "SpanEvent",
    "SpanRing",
    "TIERS",
    "Tracer",
    "VIEW_STAGES",
]

#: Bound on the label -> birth-time map feeding the end-to-end latency
#: histogram (oldest outstanding labels are forgotten beyond it).
_LATENCY_CAP = 8192


class Observability:
    """The tracer + metrics bundle a host arms on its stack."""

    def __init__(self):
        self.metrics = MetricsRegistry()
        self.tracer = Tracer()
        self._born = OrderedDict()
        self._cb_born = OrderedDict()
        self._lat = self.metrics.histogram("gcs.to.delivery_latency_s")
        self._cb_lat = self.metrics.histogram("gcs.cb.delivery_latency_s")
        self._bcasts = self.metrics.counter("gcs.to.bcasts")
        self._deliveries = self.metrics.counter("gcs.to.deliveries")
        self._cb_bcasts = self.metrics.counter("gcs.cb.cbcasts")
        self._cb_deliveries = self.metrics.counter("gcs.cb.deliveries")
        self._vs_views = self.metrics.counter("gcs.vs.views_installed")
        self._dvs_views = self.metrics.counter("gcs.dvs.views_attempted")
        self._registered = self.metrics.counter("gcs.dvs.views_registered")

    # -- Host hooks --------------------------------------------------------

    def on_action(self, t, name, params):
        """ActionLog hook: spans plus the gcs-layer counters."""
        self.tracer.on_action(t, name, params)
        if name == "bcast":
            self._bcasts.inc()
        elif name == "brcv":
            self._deliveries.inc()
        elif name == "vs_newview":
            self._vs_views.inc()
        elif name == "dvs_newview":
            self._dvs_views.inc()
        elif name == "dvs_register_view":
            self._registered.inc()
        elif name == "to_label":
            if t is not None:
                self._born[params[0]] = t
                while len(self._born) > _LATENCY_CAP:
                    self._born.popitem(last=False)
        elif name == "to_deliver":
            born = self._born.get(params[0])
            if born is not None and t is not None:
                self._lat.observe(t - born)
        elif name == "cbcast":
            self._cb_bcasts.inc()
        elif name == "cb_brcv":
            self._cb_deliveries.inc()
        elif name == "cb_label":
            # Keyed on the per-view slot, not the message object: the
            # application payload inside a CbCast may be unhashable.
            key = message_key(params[0])
            if t is not None and key is not None:
                self._cb_born[key] = t
                while len(self._cb_born) > _LATENCY_CAP:
                    self._cb_born.popitem(last=False)
        elif name == "cb_deliver":
            key = message_key(params[0])
            born = None if key is None else self._cb_born.get(key)
            if born is not None and t is not None:
                self._cb_lat.observe(t - born)

    def wire_event(self, stage, pid, peer, msg, t):
        self.tracer.wire_event(stage, pid, peer, msg, t)

    # -- Reading -----------------------------------------------------------

    def snapshot(self):
        """Metrics plus the trace stage summary, JSON-ready."""
        metrics = self.metrics.snapshot()
        summary = self.tracer.stage_summary()
        views = self._dvs_views.value
        derived = {
            "messages_per_view": (
                self._deliveries.value / views if views else None
            ),
        }
        return {"metrics": metrics, "trace": summary, "derived": derived}
