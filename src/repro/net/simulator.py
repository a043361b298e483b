"""The simulated asynchronous network: nodes, channels, partitions, crashes.

Semantics:

- **Channels** are point-to-point and FIFO.  Each ordered pair of processes
  has its own queue; per-message latency is drawn deterministically from a
  seeded RNG but delivery order per channel is preserved (a message never
  overtakes an earlier one on the same channel).
- **Partitions** are modelled as a map from process to component id
  (:class:`~repro.net.plane.FaultPlane`, shared with the live runtime).
  A message is delivered only if, *at delivery time*, the sender and the
  receiver are alive and in the same component; otherwise it is dropped
  (the classic fair-lossy abstraction -- reliability within a stable
  component is what the membership/ordering layer rebuilds).
- **Crashes** silence a node (its messages and timers are dropped) until
  ``recover`` -- recovery is amnesia-free for the node object itself;
  protocols that need crash-recovery semantics must manage their own
  stable storage (our stack treats recovery like a merge).
- **Link faults** (:mod:`repro.faults.models`) refine the fair-lossy
  adversary below the partition layer: installed fault objects may drop,
  duplicate or delay individual messages per directed link, or block a
  link one-way.  All fault randomness is drawn from the network's own
  seeded RNG, so a faulty run replays bit-for-bit from its seed.
- **Connectivity oracle**: whenever the partition map or crash set
  changes, every alive node is told its current component via
  ``on_connectivity``.  This substitutes for a failure detector; the
  safety of everything above is insensitive to the substitution (the
  oracle only affects *when* view changes happen, not what the layers do
  with them).
"""

import random
from types import MappingProxyType

from repro.net.events import EventQueue
from repro.net.plane import FaultPlane


class Node:
    """Base class for protocol nodes attached to a :class:`Network`."""

    def __init__(self, pid):
        self.pid = pid
        self.net = None

    # -- Downcalls available once attached ------------------------------------

    def send(self, dst, msg):
        self.net.send(self.pid, dst, msg)

    def broadcast(self, dsts, msg):
        # Delegating the fan-out lets the host optimise it (the live
        # runtime encodes the frame once for all destinations).
        self.net.broadcast(self.pid, dsts, msg)

    def set_timer(self, delay, tag):
        return self.net.set_timer(self.pid, delay, tag)

    # -- Upcalls (override) ------------------------------------------------------

    def on_start(self):
        """Called once when the simulation starts."""

    def on_message(self, src, msg):
        """A message from ``src`` arrived."""

    #: ``tag -> function(node)``: what a fired timer runs.
    timer_handlers = MappingProxyType({})

    def on_timer(self, tag):
        """A timer set with ``set_timer`` fired: run the handler the
        node's class declares for ``tag`` (an unknown tag does nothing)."""
        handler = self.timer_handlers.get(tag)
        if handler is not None:
            handler(self)

    def on_connectivity(self, component):
        """The connectivity oracle reports the node's current component
        (a frozenset of alive process ids, always containing ``self.pid``)."""


class EventLog(list):
    """The network's chronological event log, optionally bounded.

    With ``limit=None`` this is a plain list (full history).  With a
    limit, the log keeps only the most recent ``limit`` entries, trimming
    in chunks so appends stay amortized O(1); ``dropped`` counts entries
    discarded from the front.  Long chaos runs set a limit so memory stays
    bounded; an armed safety monitor keeps the full log for diagnostics.
    """

    def __init__(self, limit=None):
        super().__init__()
        self.limit = limit
        self.dropped = 0

    def append(self, entry):
        super().append(entry)
        if self.limit is not None and len(self) > 2 * self.limit:
            excess = len(self) - self.limit
            del self[:excess]
            self.dropped += excess


class Network:
    """The simulated network tying nodes, channels and faults together."""

    def __init__(self, seed=0, min_latency=1.0, max_latency=2.0,
                 log_limit=None, tracer=None):
        self.queue = EventQueue()
        self.rng = random.Random(seed)
        self.min_latency = min_latency
        self.max_latency = max_latency
        #: Optional span sink (``wire_event(stage, pid, peer, msg, t)``,
        #: e.g. :class:`repro.obs.Observability`); purely observational.
        self.tracer = tracer
        self.nodes = {}
        #: Partition map, link faults and channel clocks; fault models
        #: draw from the same seeded RNG as the latencies.
        self.plane = FaultPlane(self.rng)
        self._crashed = set()
        self._started = False
        #: Chronological log of (time, kind, details) tuples for analysis.
        self.log = EventLog(limit=log_limit)

    # -- Topology ------------------------------------------------------------------

    def add_node(self, node):
        if node.pid in self.nodes:
            raise ValueError("duplicate node {0!r}".format(node.pid))
        self.nodes[node.pid] = node
        node.net = self
        return node

    @property
    def faults(self):
        """Active link-fault objects (see :mod:`repro.faults.models`)."""
        return self.plane.faults

    def alive(self, pid):
        return pid in self.nodes and pid not in self._crashed

    def connected(self, a, b):
        return (
            self.alive(a)
            and self.alive(b)
            and not self.plane.separated(a, b)
        )

    def component(self, pid):
        """The alive processes currently connected to ``pid`` (incl. it)."""
        if not self.alive(pid):
            return frozenset()
        return frozenset(
            q
            for q in self.nodes
            if self.alive(q) and not self.plane.separated(pid, q)
        )

    def components(self):
        """All current components of alive processes."""
        return list(dict.fromkeys(
            self.component(pid) for pid in self.nodes if self.alive(pid)
        ))

    # -- Fault injection ----------------------------------------------------------------

    def partition(self, groups):
        """Split the network into the given groups of process ids.

        Unlisted alive processes form one extra shared component.
        """
        self.plane.partition(groups)
        self._record("partition", [sorted(g) for g in groups])
        self._notify_connectivity()

    def heal(self):
        """Merge every process back into one component."""
        self.plane.heal()
        self._record("heal", None)
        self._notify_connectivity()

    def crash(self, pid):
        if pid in self._crashed:
            return
        self._crashed.add(pid)
        self._record("crash", pid)
        self._notify_connectivity()

    def recover(self, pid):
        if pid not in self._crashed:
            return
        self._crashed.discard(pid)
        self._record("recover", pid)
        self._notify_connectivity()

    def install_fault(self, fault):
        """Arm a link-fault model; returns it (for :meth:`remove_fault`)."""
        self.plane.install_fault(fault)
        self._record("fault_on", str(fault))
        return fault

    def remove_fault(self, fault):
        if self.plane.remove_fault(fault):
            self._record("fault_off", str(fault))

    def link_blocked(self, src, dst):
        """True if an installed fault blocks ``src -> dst`` right now."""
        return self.plane.link_blocked(src, dst)

    def _notify_connectivity(self):
        if not self._started:
            return
        for pid, node in sorted(self.nodes.items()):
            if self.alive(pid):
                node.on_connectivity(self.component(pid))

    # -- Messaging --------------------------------------------------------------------------

    def send(self, src, dst, msg):
        """Queue a message; it is dropped at delivery time if the endpoints
        are then crashed, separated or on a blocked link."""
        if not self.alive(src):
            return
        # Each copy is an extra delay on top of the drawn latency.
        copies = self.plane.copies(src, dst)
        if not copies:
            self._record("fault_drop", (src, dst, msg))
            return
        self._record("send", (src, dst, msg))
        if self.tracer is not None:
            self.tracer.wire_event(
                "wire_send", src, dst, msg, self.queue.now
            )
        for extra in copies:
            latency = self.rng.uniform(self.min_latency, self.max_latency)
            # FIFO per channel: never deliver before the previous message
            # on the same channel, whatever jitter the faults added.
            deliver_at = self.plane.fifo(
                src, dst, self.queue.now + latency + extra
            )

            def deliver():
                if not self.connected(src, dst) or self.link_blocked(src, dst):
                    self._record("drop", (src, dst, msg))
                    return
                self._record("deliver", (src, dst, msg))
                if self.tracer is not None:
                    self.tracer.wire_event(
                        "wire_recv", dst, src, msg, self.queue.now
                    )
                self.nodes[dst].on_message(src, msg)

            self.queue.schedule(deliver_at - self.queue.now, deliver)

    def broadcast(self, src, dsts, msg):
        """Fan ``msg`` out to every destination (one channel send each)."""
        for dst in dsts:
            self.send(src, dst, msg)

    def set_timer(self, pid, delay, tag):
        def fire():
            if self.alive(pid):
                self.nodes[pid].on_timer(tag)

        return self.queue.schedule(delay, fire)

    # -- Execution ---------------------------------------------------------------------------

    def start(self):
        """Start all nodes and push the initial connectivity report."""
        if self._started:
            return
        self._started = True
        for pid, node in sorted(self.nodes.items()):
            node.on_start()
        self._notify_connectivity()

    def run_until(self, deadline):
        if not self._started:
            self.start()
        self.queue.run_until(deadline)

    def run_to_quiescence(self, max_time=float("inf"), max_events=1000000):
        if not self._started:
            self.start()
        return self.queue.run_to_quiescence(max_time, max_events)

    def record(self, kind, details):
        """Public hook for instrumentation (nemesis ops, workload marks)."""
        self._record(kind, details)

    def _record(self, kind, details):
        self.log.append((self.queue.now, kind, details))
