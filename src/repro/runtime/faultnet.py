"""Fault injection for the live TCP runtime.

The simulator executes :class:`~repro.faults.nemesis.NemesisPlan`
schedules by construction -- faults transform the scheduler's copy
lists.  On real sockets there is no scheduler to transform, so this
module interposes at the transport boundary of every
:class:`~repro.runtime.node.RuntimeNode` instead:

- on the *send* side, :meth:`FaultNet.outbound` runs the same
  :class:`~repro.faults.models.LinkFault` objects the simulator
  installs over an encoded frame's copy list -- loss drops the frame
  before it reaches the :class:`~repro.runtime.transport.PeerLink`,
  duplication queues extra copies, jitter and latency spikes defer the
  queueing through ``loop.call_later``;
- on the *receive* side, :meth:`FaultNet.blocked` vetoes delivery for
  partitioned or one-way-blocked links, mirroring the simulator's
  delivery-time semantics (frames in flight across a freshly blocked
  link are lost, and a blocked peer's heartbeats become invisible, so
  the connectivity estimator suspects it exactly as the oracle would).

One :class:`FaultNet` is shared by every node of a
:class:`~repro.runtime.cluster.RuntimeCluster` and lives on the
cluster's event loop thread; all randomness draws from its seeded RNG,
so two live runs with the same ``(fault_seed, plan)`` make the same
drop/delay decisions (the network itself stays nondeterministic --
determinism on live runs comes from trace replay, not from the run).

:class:`LiveNemesis` is the live twin of
:class:`~repro.faults.nemesis.Nemesis`: it executes a plan against a
running cluster -- ``crash``/``recover`` ops kill and revive nodes,
``partition``/``heal`` rewrite the component map, windowed ops install
and remove fault models -- using ``loop.call_later`` where the
simulator used its event queue.
"""

import asyncio
import random

from repro.faults.nemesis import Nemesis, NemesisPlan
from repro.net.plane import FaultPlane

#: Delays below this are flushed inline rather than via the loop: a
#: ``call_later(0)`` would still reorder the frame behind every ready
#: callback, which is *more* disruption than the plan asked for.
_INLINE_DELAY = 1e-6


class FaultNet(FaultPlane):
    """Cluster-wide fault state consulted by every node's transport.

    The partition map, fault list, channel clock and copy pipeline are
    the simulator's own (:class:`~repro.net.plane.FaultPlane`), so
    :class:`~repro.faults.models.LinkFault` objects plug in unchanged
    and delayed copies are serialized per directed pair exactly as on
    the event queue: jitter stretches inter-arrival gaps without ever
    reordering a pair's frames, which TCP could not do either.  What
    this class adds is what sockets need: the send-side delay schedule,
    the receive-side veto and the counters.
    """

    def __init__(self, seed=0):
        super().__init__(random.Random(seed))
        # Counters (read via stats(); all mutated on the loop thread).
        self.injected_drops = 0
        self.injected_copies = 0
        self.delayed_sends = 0
        self.blocked_recvs = 0

    # -- Transport interposition -------------------------------------------

    def blocked(self, src, dst):
        """Delivery veto for ``src -> dst`` (partitions + one-way blocks),
        checked by the *receiver* so in-flight frames are lost too."""
        return self.separated(src, dst) or self.link_blocked(src, dst)

    def note_blocked_recv(self):
        self.blocked_recvs += 1

    def outbound(self, src, dst, now):
        """Fault decision for one frame about to be queued on a link.

        Returns ``None`` when no fault matches and no delayed copy is
        still pending on the pair (the caller takes its fast path
        unchanged), else the list of delays (seconds from ``now``) at
        which to queue each surviving copy -- ``[]`` means the frame is
        dropped outright.
        """
        matched = any(f.applies(src, dst) for f in self.faults)
        copies = self.copies(src, dst)
        if not copies:
            self.injected_drops += 1
            return []
        self.injected_copies += len(copies) - 1
        delays = [self.fifo(src, dst, now + extra) - now for extra in copies]
        if not matched and delays == [0.0]:
            return None
        self.delayed_sends += sum(d > _INLINE_DELAY for d in delays)
        return delays

    # -- Observation -------------------------------------------------------

    def stats(self):
        return {
            "active_faults": len(self.faults),
            "partitioned": self.partitioned,
            "injected_drops": self.injected_drops,
            "injected_copies": self.injected_copies,
            "delayed_sends": self.delayed_sends,
            "blocked_recvs": self.blocked_recvs,
        }


class LiveNemesis:
    """Executes a :class:`NemesisPlan` against a live cluster.

    Op times are seconds on the cluster clock (which starts at ~0 when
    the cluster boots); :meth:`arm` must run on the cluster's event
    loop, which :meth:`RuntimeCluster._start_all` guarantees.
    """

    def __init__(self, plan, faultnet=None):
        self.plan = NemesisPlan.of(plan)
        self.faultnet = faultnet
        self.applied = []
        #: In-flight crash/recover tasks: a strong reference keeps them
        #: collectable only after completion, and the done-callback
        #: surfaces their exceptions into :attr:`errors` instead of
        #: letting the loop swallow them (pinned by
        #: ``test_nemesis_crash_failures_are_captured_not_lost``).
        self.tasks = set()
        self.errors = []

    def arm(self, cluster):
        loop = asyncio.get_running_loop()
        if self.faultnet is None:
            self.faultnet = cluster.faultnet
        for op in self.plan:
            delay = max(0.0, op.at - cluster.clock.now)
            loop.call_later(delay, self._apply, cluster, loop, op)
        return self

    def _apply(self, cluster, loop, op):
        self.applied.append(op)
        cluster.note_nemesis(op)
        if op.kind == "crash":
            self._track(
                asyncio.ensure_future(cluster.nemesis_kill(op.args[0]))
            )
        elif op.kind == "recover":
            self._track(
                asyncio.ensure_future(cluster.nemesis_revive(op.args[0]))
            )
        else:
            Nemesis._apply(self.faultnet, op, loop.call_later)

    def _track(self, task):
        self.tasks.add(task)
        task.add_done_callback(self._reap)

    def _reap(self, task):
        self.tasks.discard(task)
        if task.cancelled():
            return
        exc = task.exception()
        if exc is not None:
            self.errors.append(exc)
