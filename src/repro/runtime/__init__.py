"""Live deployment runtime: the simulated stack on real sockets.

This package hosts the *unchanged* layer stack of :mod:`repro.gcs` --
VS membership, the DVS layer, totally ordered broadcast -- behind an
asyncio TCP transport that satisfies the same upcall/downcall contract
the simulator provides (``send``/``broadcast``/``set_timer``/``now``
down, ``on_start``/``on_message``/``on_timer``/``on_connectivity`` up).
The one semantic substitution is the connectivity oracle: where the
simulator tells each node its exact partition component, the runtime
estimates it from heartbeats (see DESIGN.md §9 for why that is safe).

Layers: :mod:`~repro.runtime.codec` (versioned wire format and
framing), :mod:`~repro.runtime.transport` (reconnecting peer links and
the accept side), :mod:`~repro.runtime.heartbeat` (connectivity
estimation), :mod:`~repro.runtime.node` (one live process),
:mod:`~repro.runtime.cluster` (the in-process loopback harness tests
and benchmarks drive), :mod:`~repro.runtime.serve` (the ``repro
serve`` command).
"""

from repro.runtime.codec import (
    MAX_FRAME,
    WIRE_TYPES,
    WIRE_VERSION,
    CodecError,
    FrameDecoder,
    Heartbeat,
    Hello,
    decode,
    encode,
    encode_frame,
)
from repro.runtime.cluster import RuntimeCluster
from repro.runtime.heartbeat import ConnectivityEstimator
from repro.runtime.node import MonotonicClock, RuntimeNode
from repro.runtime.transport import Listener, PeerLink

__all__ = [
    "MAX_FRAME",
    "WIRE_TYPES",
    "WIRE_VERSION",
    "CodecError",
    "ConnectivityEstimator",
    "FrameDecoder",
    "Heartbeat",
    "Hello",
    "Listener",
    "MonotonicClock",
    "PeerLink",
    "RuntimeCluster",
    "RuntimeNode",
    "decode",
    "encode",
    "encode_frame",
]
