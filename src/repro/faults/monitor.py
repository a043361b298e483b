"""Online safety monitoring: the specifications, stepped as the run goes.

A :class:`SafetyMonitor` observes the cluster's shared
:class:`~repro.gcs.recorder.ActionLog` and steps, on every recorded
action, an :class:`~repro.ioa.acceptor.Acceptor` of each whole
specification: **VS** (Figure 1), **DVS** (Figure 2, where Invariant
4.1 is DVS-CREATEVIEW's precondition) and **TO** (Theorem 6.4).  It is
a run's one oracle: each rejection is the one the reference walk
(``accept_vs`` / ``accept_dvs`` / ``accept_to``) gives on the same log.
**CB** keeps four named checks with no spec twin (DESIGN section 14):
each ``cb_brcv`` must meet, at its receiver, the vector-clock delivery
condition its cast carries on the wire.

A violation carries the action and network logs up to its event.
"""

from collections import defaultdict

from repro.dvs.refinement import dvs_acceptor
from repro.ioa.acceptor import RESTART, Rejection
from repro.to.refinement import to_acceptor
from repro.vs.spec import vs_acceptor


class SafetyViolation(AssertionError):
    """A monitored safety property failed during a run.

    Built from the :class:`~repro.ioa.acceptor.Rejection`: ``prop`` is
    the spec (or CB check) name, ``detail`` the rejection line.  Also
    ``time`` (the run's clock), ``actions`` (timed action log up to and
    including the violating event) and ``net_log`` (the network's event
    log, when the monitor was given access to it).
    """

    def __init__(self, rejection, time=None, actions=(), net_log=()):
        self.rejection = rejection
        self.prop = rejection.spec
        self.detail = str(rejection)
        self.time = time
        self.actions = list(actions)
        self.net_log = list(net_log)
        super().__init__("at t={0}: {1}".format(time, self.detail))

    def summary(self):
        return self.detail


class SafetyMonitor:
    """The VS, DVS and TO acceptors (``specs``, by name) plus the CB
    checks, over the initial view's members (every host builds ``v0``
    over all its processes).  ``fail_fast=True`` (the default) raises
    :class:`SafetyViolation` from inside the event callback, aborting
    the run at the first violation; with ``fail_fast=False`` violations
    accumulate in ``violations`` and the run continues (an acceptor
    reports its first rejection only)."""

    def __init__(self, initial_view, fail_fast=True, net=None):
        self.fail_fast = fail_fast
        self.net = net
        self.violations = []
        self.checked_events = 0
        self.specs = {
            "VS": vs_acceptor(initial_view),
            "DVS": dvs_acceptor(initial_view),
            "TO": to_acceptor(initial_view.set),
        }
        # Each action reaches only the acceptors whose names include it;
        # one lookup drops the rest (most of a run's actions).
        self._routes = {"cbcast": (), "cb_brcv": ()}
        for acceptor in self.specs.values():
            for name in acceptor.names:
                self._routes[name] = self._routes.get(name, ()) + (acceptor,)
        # CB state: broadcast set, per-process per-view delivered counts
        # (sender -> count), per-(view, sender, seqno) payload slots.
        self.cb_broadcast = set()
        self.cb_counts = defaultdict(dict)
        self.cb_slots = {}
        self._log = None  # ActionLog, set on attach

    def attach(self, action_log):
        """Observe ``action_log`` (see :class:`repro.gcs.recorder.ActionLog`)."""
        self._log = action_log
        action_log.observers.append(self.on_action)
        return self

    def on_action(self, time, action):
        index = self.checked_events
        self.checked_events = index + 1
        name = action.name
        acceptors = self._routes.get(name)
        if acceptors is None:
            return
        for acceptor in acceptors:
            rejection = acceptor.step(action, index)
            if rejection is not None:
                self._fail(rejection, time)
        if name == "cb_brcv":
            self._on_cb_brcv(time, index, action)
        elif name == "cbcast":
            self.cb_broadcast.add(action.params)
        elif name == RESTART:
            self.cb_counts.pop(action.params[0], None)

    def _on_cb_brcv(self, time, index, action):
        """Re-check the BSS delivery condition from the on-wire clock:
        ``msg.clock[origin]`` must be *exactly* one past the receiver's
        delivered count (no gap, no duplicate), and the other entries --
        the sender's causal past -- must already be delivered here."""
        msg, origin, pid = action.params
        fail = self._cb_fail
        if (msg.payload, origin) not in self.cb_broadcast:
            fail(time, index, action, "cb-integrity", "{pid} delivered "
                 "{payload!r} attributed to {origin} before/without its "
                 "broadcast")
        if msg.origin != origin:
            fail(time, index, action, "cb-integrity", "{pid} delivered a "
                 "cast stamped by {stamp} but attributed to {origin}",
                 stamp=msg.origin)
        counts = self.cb_counts[pid].setdefault(msg.vid, {})
        clock = dict(msg.clock)
        seqno = clock.get(origin, 0)
        expected = counts.get(origin, 0) + 1
        if seqno != expected:
            fail(time, index, action, "cb-gap-free", "{pid}'s delivery from "
                 "{origin} in view {vid} carries seqno {seqno} but "
                 "{expected} is next (gap or duplicate)", seqno=seqno,
                 expected=expected)
        for sender, count in sorted(clock.items()):
            if sender != origin and count > counts.get(sender, 0):
                fail(time, index, action, "cb-causal-order", "{pid} "
                     "delivered {payload!r} from {origin} whose clock "
                     "requires {count} cast(s) from {sender} in view {vid}, "
                     "but only {have} delivered", count=count, sender=sender,
                     have=counts.get(sender, 0))
        known = self.cb_slots.setdefault((msg.vid, origin, seqno), msg.payload)
        if known != msg.payload:
            fail(time, index, action, "cb-content-consistency", "view {vid} "
                 "slot {origin}#{seqno} delivered as {payload!r} at {pid} "
                 "but {known!r} elsewhere", seqno=seqno, known=known)
        counts[origin] = seqno

    def _cb_fail(self, time, index, action, prop, reason, **values):
        msg, origin, pid = action.params
        reason = reason.format(pid=pid, origin=origin, vid=msg.vid,
                               payload=msg.payload, **values)
        self._fail(Rejection(prop, index, action, reason), time)

    def _fail(self, rejection, time):
        violation = SafetyViolation(
            rejection,
            time=time,
            actions=self._log.timed_actions() if self._log is not None else (),
            net_log=self.net.log if self.net is not None else (),
        )
        self.violations.append(violation)
        if self.fail_fast:
            raise violation

    @property
    def ok(self):
        return not self.violations

    def rejections(self):
        """``{spec name: its Rejection, or None}``, in step order."""
        return {name: a.rejection for name, a in self.specs.items()}

    def stats(self):
        stats = {"events": self.checked_events}
        for acceptor in (self.specs["DVS"], self.specs["TO"]):
            stats.update(acceptor.spec.stats(acceptor.state))
        stats.update({
            "cb_broadcasts": len(self.cb_broadcast),
            "cb_deliveries": sum(
                sum(counts.values())
                for by_view in self.cb_counts.values()
                for counts in by_view.values()
            ),
            "violations": len(self.violations),
        })
        return stats
