"""Bracketing the repo's layers from outside.

:func:`instrument` replaces the public entry points of every layer with
span-bracketed versions (class and module attributes, through a
:class:`~benchmarks.gcsbench.spans.Patches` that puts the originals back
no matter how the run ends).  A layer here is a module of the repo:

============  =======================================================
``codec.*``   ``runtime/codec.py`` (encode / decode / validate)
``transport`` ``runtime/transport.py`` (``PeerLink.send_frame``)
``node.*``    ``runtime/node.py`` (send facade / receive callback)
``heartbeat`` ``runtime/heartbeat.py``
``vs``        ``gcs/vs_stack.py``
``dvs``       ``gcs/dvs_layer.py``
``fanout``    ``DvsFanout`` in ``gcs/cb_layer.py``
``to``        ``gcs/to_layer.py``
``cb``        ``CbLayer`` in ``gcs/cb_layer.py``
``log``       ``gcs/recorder.py`` (``ActionLog``)
``monitor``   ``faults/monitor.py`` (child of ``log``)
``obs``       ``obs/`` (child of ``log`` and of ``node.*``)
============  =======================================================

``app``, ``loadgen`` and ``probe`` spans are opened by the harness
itself; ``trace`` is the counting done at these same boundaries.
"""

import time
from collections import Counter, defaultdict, deque

import repro.runtime.node as runtime_node
from repro.dvs.vs_to_dvs import AckMsg
from repro.faults.monitor import SafetyMonitor
from repro.gcs.cb_layer import CbLayer, DvsFanout
from repro.gcs.dvs_layer import DvsLayer
from repro.gcs.messages import Data
from repro.gcs.recorder import ActionLog
from repro.gcs.to_layer import ToLayer
from repro.gcs.vs_stack import VsStackNode
from repro.obs import Observability
from repro.runtime.codec import FrameDecoder, Hello
from repro.runtime.heartbeat import ConnectivityEstimator
from repro.runtime.transport import Listener, PeerLink
from repro.to.summaries import Summary

_TYPE_TAG = b'["@","'


def frame_type(frame):
    """Class name of the message inside an encoded ``(pid, msg)``
    envelope, read from the bytes: the envelope's first dataclass tag is
    the message (the pid before it is a plain string)."""
    start = frame.find(_TYPE_TAG, 5)
    if start < 0:
        return "other"
    start += len(_TYPE_TAG)
    end = frame.find(b'"', start)
    if end < 0:
        return "other"
    return frame[start:end].decode("ascii", "replace")


class Counts:
    """Everything counted (not timed) at the layer boundaries."""

    def __init__(self):
        self.reset_window()
        #: Cleared by the failover scenario at the kill: frames in
        #: flight to a dead node never arrive, which would misalign the
        #: k-th-send / k-th-arrival pairing from then on.
        self.pair_transit = True
        self._in_flight = defaultdict(deque)  # (src, dst) -> send times
        self._links = set()

    def reset_window(self):
        """Zero what is counted per window.  The in-flight send times
        survive: frames sent before the window opens still arrive."""
        self.frames = Counter()        # by message type
        self.frame_bytes = 0
        self.encodes = 0
        self.reads = 0                 # FrameDecoder.feed calls
        self.frames_decoded = 0
        self.vs_msgs = 0
        self.dvs_acks = 0
        self.dvs_safes = 0
        self.log_records = 0
        self.queue_depth_max = 0
        self.holdback_max = 0
        self.summary_bytes_max = 0
        self.transit_ns = []
        #: ``(perf_counter seconds, pid)`` of every connectivity report.
        self.connectivity = []

    _WINDOWED = (
        "frame_bytes", "encodes", "reads", "frames_decoded", "vs_msgs",
        "dvs_acks", "dvs_safes", "log_records", "queue_depth_max",
        "holdback_max",
    )

    def freeze(self):
        """A copy of the per-window counts, as a plain dict
        (``transit_ns`` only grows, so its length is copy enough)."""
        frozen = {name: getattr(self, name) for name in self._WINDOWED}
        frozen["frames"] = dict(self.frames)
        frozen["transits"] = len(self.transit_ns)
        return frozen

    def queue_drops(self):
        return sum(link.queue_drops for link in self._links)

    # -- Notes (run inside a ``trace`` span, after the layer's own) ----------

    def sent(self, _result, link, frame):
        self.frames[frame_type(frame)] += 1
        self.frame_bytes += len(frame)
        self._links.add(link)
        depth = link.queue_depth()
        if depth > self.queue_depth_max:
            self.queue_depth_max = depth
        if self.pair_transit:
            self._in_flight[(link.local_pid, link.peer_pid)].append(
                time.perf_counter_ns()
            )

    def arrived(self, dst, src, msg):
        # The Hello that opens a connection is written by the link task
        # itself, never through send_frame.
        if self.pair_transit and not isinstance(msg, Hello):
            queue = self._in_flight[(src, dst)]
            if queue:
                self.transit_ns.append(
                    time.perf_counter_ns() - queue.popleft()
                )

    def encoded(self, frame, envelope):
        self.encodes += 1
        msg = envelope[1]
        if (
            type(msg) is Data
            and isinstance(msg.payload, Summary)
            and len(frame) > self.summary_bytes_max
        ):
            self.summary_bytes_max = len(frame)

    def fed(self, frames, _decoder, _data):
        self.reads += 1
        self.frames_decoded += len(frames)

    def vs_message(self, _result, _stack, _src, _msg):
        self.vs_msgs += 1

    def vs_gpsnd(self, _result, _stack, payload):
        if type(payload) is AckMsg:
            self.dvs_acks += 1

    def reported(self, _result, stack, _component):
        self.connectivity.append((time.perf_counter(), stack.pid))

    def safe(self, _result, _fanout, _payload, _sender):
        self.dvs_safes += 1

    def recorded(self, _result, _log, _name, *_params):
        self.log_records += 1

    def held_back(self, _result, layer, _payload, _sender):
        if len(layer.holdback) > self.holdback_max:
            self.holdback_max = len(layer.holdback)


def instrument(patches, table):
    """Install every bracket; returns the :class:`Counts` they feed."""
    counts = Counts()
    wrap = table.wrap

    def method(cls, name, layer, note=None):
        patches.set(cls, name, wrap(layer, getattr(cls, name), note))

    # codec: the names as imported into the node module (the send path)
    # and the decoder class the listener instantiates.
    patches.set(runtime_node, "encode_frame", wrap(
        "codec.encode", runtime_node.encode_frame, counts.encoded
    ))
    patches.set(runtime_node, "validate_message", wrap(
        "codec.validate", runtime_node.validate_message
    ))
    method(FrameDecoder, "feed", "codec.decode", counts.fed)

    # transport: the outbound queue; node: the facade above it and the
    # callback below it.
    method(PeerLink, "send_frame", "transport", counts.sent)
    method(VsStackNode, "send", "node.send")
    method(VsStackNode, "broadcast", "node.send")
    arrived = wrap("trace", counts.arrived)

    def traced_listener(on_frame, **kwargs):
        receive = wrap("node.recv", on_frame)
        pid = on_frame.__self__.pid

        def on_traced_frame(src, msg):
            arrived(pid, src, msg)
            receive(src, msg)

        return Listener(on_traced_frame, **kwargs)

    patches.set(runtime_node, "Listener", traced_listener)

    method(ConnectivityEstimator, "heard", "heartbeat")
    method(ConnectivityEstimator, "poll", "heartbeat")

    method(VsStackNode, "on_message", "vs", counts.vs_message)
    method(VsStackNode, "on_timer", "vs")
    method(VsStackNode, "on_connectivity", "vs", counts.reported)
    method(VsStackNode, "gpsnd", "vs", counts.vs_gpsnd)

    for name in ("on_vs_newview", "on_vs_gprcv", "on_vs_safe", "gpsnd",
                 "register"):
        method(DvsLayer, name, "dvs")
    method(DvsFanout, "on_dvs_newview", "fanout")
    method(DvsFanout, "on_dvs_gprcv", "fanout")
    method(DvsFanout, "on_dvs_safe", "fanout", counts.safe)

    for name in ("bcast", "on_dvs_newview", "on_dvs_gprcv", "on_dvs_safe"):
        method(ToLayer, name, "to")
    method(CbLayer, "cbcast", "cb")
    method(CbLayer, "on_dvs_newview", "cb")
    method(CbLayer, "on_dvs_gprcv", "cb", counts.held_back)
    method(CbLayer, "on_dvs_safe", "cb")

    method(ActionLog, "record", "log", counts.recorded)
    method(ActionLog, "probe", "log")
    method(SafetyMonitor, "on_action", "monitor")
    method(Observability, "on_action", "obs")
    method(Observability, "wire_event", "obs")
    return counts
