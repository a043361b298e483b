"""Online safety monitoring of chaos runs.

A :class:`SafetyMonitor` attaches to the cluster's shared
:class:`~repro.gcs.recorder.ActionLog` as an observer and re-checks, on
*every* recorded event, the two end-to-end safety properties the paper
proves:

- **DVS dynamic intersection (Invariant 4.1)** -- whenever a new primary
  view is attempted, it must intersect every earlier attempted view not
  separated from it by a totally registered view (and views must arrive
  at each process in increasing identifier order, members only);
- **TO prefix consistency (Theorem 6.4)** -- every ``brcv`` must extend
  the process's delivery sequence consistently with one system-wide
  total order, with integrity (delivered payloads were broadcast) and no
  duplication;
- **CB causal order** -- every ``cb_brcv`` must satisfy, at its
  receiver, the vector-clock delivery condition the cast carries on the
  wire: it is the *next* cast from its sender in the receiver's current
  view (no gaps, no duplicates) and every cast in its causal past has
  already been delivered here, with integrity and per-view-slot content
  consistency.

One of two oracles: it checks *consequences* of the specifications,
incrementally, and fails *fast* -- the raised :class:`SafetyViolation`
carries the action and network logs up to the violating event, so a
nemesis run stops at the first bad state.  The other is the
specification itself (:mod:`repro.checking.trace_props`), walked over
the same log at end of run: stronger, and not incremental.
"""

from collections import Counter, defaultdict

from repro.core.viewids import vid_gt, vid_lt
from repro.ioa.acceptor import RESTART


class SafetyViolation(AssertionError):
    """A monitored safety property failed during a run.

    Attributes: ``prop`` (short property name), ``detail`` (diagnostic),
    ``time`` (simulated time), ``actions`` (timed action log up to and
    including the violating event) and ``net_log`` (the network's event
    log, when the monitor was given access to it).
    """

    def __init__(self, prop, detail, time=None, actions=(), net_log=()):
        self.prop = prop
        self.detail = detail
        self.time = time
        self.actions = list(actions)
        self.net_log = list(net_log)
        super().__init__(
            "[{0}] at t={1}: {2}".format(prop, time, detail)
        )

    def summary(self):
        return "{0}: {1}".format(self.prop, self.detail)


class SafetyMonitor:
    """Incremental checker of DVS Invariant 4.1 and TO prefix consistency.

    ``fail_fast=True`` (the default) raises :class:`SafetyViolation` from
    inside the event callback, aborting the run at the first violation;
    with ``fail_fast=False`` violations accumulate in ``violations`` and
    the run continues (useful for surveying how badly an ablated stack
    misbehaves).
    """

    def __init__(self, initial_view, fail_fast=True, net=None):
        self.fail_fast = fail_fast
        self.net = net
        self.violations = []
        self.checked_events = 0
        # DVS state: attempted (created) views, per-view registrations.
        self.initial_view = initial_view
        self.created = {initial_view.id: initial_view}
        self.current = {p: initial_view for p in initial_view.set}
        self.registered = defaultdict(set)
        self.registered[initial_view.id] = set(initial_view.set)
        self.totally_registered = {initial_view.id: initial_view}
        # TO state: broadcast multiset, per-process delivered multisets
        # and positions in the common order.  Broadcasts are counted: a
        # process may broadcast one payload twice, each delivered once.
        self.broadcast = Counter()
        self.deliveries = defaultdict(Counter)
        self.positions = defaultdict(int)
        self.common_order = []
        # CB state: broadcast set, per-process per-view delivered counts
        # (sender -> count), per-(view, sender, seqno) payload slots.
        self.cb_broadcast = set()
        self.cb_counts = defaultdict(dict)
        self.cb_slots = {}
        self._log = None  # ActionLog, set on attach

    # -- Wiring ------------------------------------------------------------

    def attach(self, action_log):
        """Observe ``action_log`` (see :class:`repro.gcs.recorder.ActionLog`)."""
        self._log = action_log
        action_log.observers.append(self.on_action)
        return self

    def restart_process(self, pid):
        """What the host's ``restart(p)`` marker means here (DESIGN
        section 9): a *fresh process reusing the id* replays the
        confirmed order from its start.  System-wide facts (views,
        broadcasts, the common order, registrations) survive; ``pid``'s
        delivery sequence and current-view pointer reset."""
        self.deliveries.pop(pid, None)
        self.positions.pop(pid, None)
        self.current.pop(pid, None)
        self.cb_counts.pop(pid, None)

    # -- Event dispatch ----------------------------------------------------

    def on_action(self, time, action):
        self.checked_events += 1
        name = action.name
        if name == "dvs_newview":
            view, pid = action.params
            self._on_newview(time, view, pid)
        elif name == "dvs_register":
            (pid,) = action.params
            self._on_register(time, pid)
        elif name == "bcast":
            payload, pid = action.params
            self.broadcast[(payload, pid)] += 1
        elif name == "brcv":
            payload, origin, pid = action.params
            self._on_brcv(time, payload, origin, pid)
        elif name == "cbcast":
            payload, pid = action.params
            self.cb_broadcast.add((payload, pid))
        elif name == "cb_brcv":
            msg, origin, pid = action.params
            self._on_cb_brcv(time, msg, origin, pid)
        elif name == RESTART:
            self.restart_process(*action.params)

    # -- DVS: view order + Invariant 4.1 -----------------------------------

    def _on_newview(self, time, view, pid):
        if pid not in view.set:
            self._fail("dvs-membership", time,
                       "{0} attempted view {1} it is not a member of"
                       .format(pid, view))
        previous = self.current.get(pid)
        if previous is not None and not vid_gt(view.id, previous.id):
            self._fail("dvs-view-order", time,
                       "{0} attempted {1} after {2} (ids not increasing)"
                       .format(pid, view, previous))
        self.current[pid] = view
        if view.id in self.created:
            if self.created[view.id].set != view.set:
                self._fail("dvs-view-identity", time,
                           "two views share id {0}: {1} vs {2}".format(
                               view.id, self.created[view.id], view))
            return
        # Invariant 4.1, incrementally: the new view only adds pairs that
        # include itself (it is not yet totally registered, so it cannot
        # separate an existing pair).
        for other in self.created.values():
            low, high = ((other, view) if vid_lt(other.id, view.id)
                         else (view, other))
            separated = any(
                vid_lt(low.id, x.id) and vid_lt(x.id, high.id)
                for x in self.totally_registered.values()
            )
            if not separated and not (low.set & high.set):
                self._fail(
                    "dvs-4.1-intersection", time,
                    "attempted views {0} and {1} are disjoint with no "
                    "totally registered view between them".format(low, high))
        self.created[view.id] = view

    def _on_register(self, time, pid):
        view = self.current.get(pid)
        if view is None:
            self._fail("dvs-register", time,
                       "{0} registered with no attempted view".format(pid))
        self.registered[view.id].add(pid)
        if self.registered[view.id] >= view.set:
            self.totally_registered[view.id] = view

    # -- TO: integrity, no duplication, prefix consistency -----------------

    def _on_brcv(self, time, payload, origin, pid):
        entry = (payload, origin)
        sent = self.broadcast[entry]
        if not sent:
            self._fail("to-integrity", time,
                       "{0} delivered {1!r} attributed to {2} before/without "
                       "its broadcast".format(pid, payload, origin))
        position = self.positions[pid]
        if position < len(self.common_order):
            expected = self.common_order[position]
            if entry != expected:
                self._fail(
                    "to-prefix-consistency", time,
                    "{0}'s delivery #{1} is {2!r} but the common order has "
                    "{3!r}".format(pid, position + 1, entry, expected))
        else:
            self.common_order.append(entry)
        # k-th delivery of an entry is legal iff it was broadcast >= k times.
        delivered = self.deliveries[pid]
        delivered[entry] += 1
        if 0 < sent < delivered[entry]:
            self._fail("to-no-duplication", time,
                       "{0} delivered {1!r} {2} time(s) but it was "
                       "broadcast {3} time(s)".format(
                           pid, entry, delivered[entry], sent))
        self.positions[pid] = position + 1

    # -- CB: integrity, gap-freedom, causal precedence ----------------------

    def _on_cb_brcv(self, time, msg, origin, pid):
        """Re-check the BSS delivery condition from the on-wire clock.

        ``msg.clock[origin]`` is the per-view per-sender sequence
        number; requiring it to be *exactly* one past the receiver's
        delivered count rules out gaps and duplicates at once, and the
        remaining clock entries -- the sender's causal past at send time
        -- must already be delivered here (causal precedence).
        """
        if (msg.payload, origin) not in self.cb_broadcast:
            self._fail("cb-integrity", time,
                       "{0} delivered {1!r} attributed to {2} before/"
                       "without its broadcast".format(pid, msg.payload,
                                                      origin))
        if msg.origin != origin:
            self._fail("cb-integrity", time,
                       "{0} delivered a cast stamped by {1} but attributed "
                       "to {2}".format(pid, msg.origin, origin))
        counts = self.cb_counts[pid].setdefault(msg.vid, {})
        clock = dict(msg.clock)
        seqno = clock.get(origin, 0)
        expected = counts.get(origin, 0) + 1
        if seqno != expected:
            self._fail(
                "cb-gap-free", time,
                "{0}'s delivery from {1} in view {2} carries seqno {3} "
                "but {4} is next (gap or duplicate)".format(
                    pid, origin, msg.vid, seqno, expected))
        for sender, count in sorted(clock.items()):
            if sender != origin and count > counts.get(sender, 0):
                self._fail(
                    "cb-causal-order", time,
                    "{0} delivered {1!r} from {2} whose clock requires "
                    "{3} cast(s) from {4} in view {5}, but only {6} "
                    "delivered".format(
                        pid, msg.payload, origin, count, sender, msg.vid,
                        counts.get(sender, 0)))
        slot = (msg.vid, origin, seqno)
        known = self.cb_slots.get(slot)
        if known is None:
            self.cb_slots[slot] = msg.payload
        elif known != msg.payload:
            self._fail(
                "cb-content-consistency", time,
                "view {0} slot {1}#{2} delivered as {3!r} at {4} but "
                "{5!r} elsewhere".format(
                    msg.vid, origin, seqno, msg.payload, pid, known))
        counts[origin] = seqno

    # -- Reporting ---------------------------------------------------------

    def _fail(self, prop, time, detail):
        violation = SafetyViolation(
            prop,
            detail,
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

    def stats(self):
        return {
            "events": self.checked_events,
            "attempted_views": len(self.created),
            "totally_registered": len(self.totally_registered),
            "broadcasts": sum(self.broadcast.values()),
            "deliveries": sum(self.positions.values()),
            "cb_broadcasts": len(self.cb_broadcast),
            "cb_deliveries": sum(
                sum(counts.values())
                for by_view in self.cb_counts.values()
                for counts in by_view.values()
            ),
            "violations": len(self.violations),
        }
