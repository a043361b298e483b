"""Observability: causal tracing and action counts across sim and runtime.

One :class:`Observability` object bundles what every host wires in the
same way:

- a :class:`~repro.obs.trace.Tracer` keeping one bounded log of
  :class:`~repro.obs.trace.SpanEvent` in emission order and stitching
  causal spans out of the identifiers already on the wire (message
  labels, view ids); the per-stage and per-tier end-to-end latencies
  are read from it (:meth:`~repro.obs.trace.Tracer.stage_summary`);
- ``counts``, how often each action and probe name was recorded.

Transport counts are not kept here: the links and the listener keep
them, and :meth:`repro.runtime.node.RuntimeNode.stats` reads them.

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
run and a live run produce structurally identical traces.  Reading
never stitches on the thread that feeds the hooks: a live host hands
the reader a :meth:`Observability.copy`, and the reader stitches that.
"""

from collections import Counter

from repro.obs.trace import LOG_EVENTS, TIERS, SpanEvent, Tracer

__all__ = [
    "LOG_EVENTS",
    "Observability",
    "SpanEvent",
    "TIERS",
    "Tracer",
]


class Observability:
    """The tracer plus the action counts a host arms on its stack."""

    def __init__(self):
        self.tracer = Tracer()
        #: Recorded action or probe name -> how often it was recorded.
        self.counts = Counter()

    def copy(self):
        """The tracer and the counts as they are now, detached from the
        hooks that keep feeding this object."""
        twin = Observability()
        twin.tracer = self.tracer.copy()
        twin.counts = self.counts.copy()
        return twin

    # -- Host hooks --------------------------------------------------------

    def on_action(self, t, name, params):
        """ActionLog hook: one count, and the span event if any."""
        self.counts[name] += 1
        self.tracer.on_action(t, name, params)

    def wire_event(self, stage, pid, peer, msg, t):
        self.tracer.wire_event(stage, pid, peer, msg, t)

    # -- Reading -----------------------------------------------------------

    def snapshot(self, summary=None):
        """The counts plus the trace stage summary, JSON-ready;
        ``summary`` is that summary when the caller has stitched the
        trace already."""
        counts = self.counts
        views = counts["dvs_newview"]
        return {
            "counts": dict(counts),
            "trace": self.tracer.stage_summary() if summary is None
            else summary,
            "derived": {
                "messages_per_view": counts["brcv"] / views if views else None,
            },
        }
