"""Heartbeat-based connectivity estimation for the live runtime.

The simulator gives every node a *connectivity oracle*: whenever the
partition map changes, each alive node is told its exact component.  On
real sockets no such oracle exists, so this module estimates it: every
node beacons a :class:`~repro.runtime.codec.Heartbeat` to all peers on a
fixed interval, treats a peer as connected while *any* traffic from it
arrived within a timeout, and reports the resulting component through
the same ``on_connectivity`` upcall the oracle used.

The substitution is safe by construction (DESIGN.md §9): the stack's
safety proofs never rely on the oracle being accurate or consistent
across nodes -- connectivity reports only decide *when* membership
rounds start, never what the layers do with the views that result.  Two
nodes may transiently disagree about the component; the coordinator's
round simply supersedes itself.  Accuracy buys liveness, not safety.

The estimator has no task: its owner calls ``heard`` per frame and
``poll`` per interval.  It reports on evidence, not on the tick: the
``heard`` whose frame completes the ``expected`` initial view reports at
once (with a member unheard, ``poll`` waits out ``grace``, so a booting
node hears whoever is there before concluding it is alone), and so does
a frame from a peer outside the reported component, while a frame from
a reported peer costs one membership test.  Expiry of a silent peer
needs the tick.  Reporting early cannot cost safety, by the argument
above.

Suspect on a refused redial: a crashed peer is not left to the timeout.
Its sockets close with it, the link to it redials and the redial is
refused (``PeerLink``'s ``on_refused``, once per lost connection), and
the owner calls ``suspect``, which drops the peer's evidence and, if it
was reported, reports the smaller component at once.  The peer comes
back the way any peer does: its next frame (a restarted process's
``Hello``) is news to ``heard``.  A partition that keeps the sockets
open refuses nothing, so it is still detected on the timeout.
"""

#: Beacon interval and peer liveness timeout (seconds) every live entry
#: point defaults to.  An estimator given only an interval still scales
#: its timeout from it.
HB_INTERVAL = 0.05
HB_TIMEOUT = 0.25


class ConnectivityEstimator:
    """Tracks peer liveness and reports component changes.

    ``peers`` is a zero-argument callable returning the current iterable
    of peer ids (so a deployment whose address book grows is picked up);
    ``clock`` exposes ``.now`` (seconds, monotonic); ``send_heartbeats``
    emits one beacon to every peer; ``notify`` receives the frozenset
    component (always containing ``pid``) whenever the estimate changes.
    ``expected`` (the node's initial view) lets the first report go out
    before ``grace`` once all of it has been heard; without it the first
    report always waits out the grace.
    """

    def __init__(self, pid, peers, clock, send_heartbeats, notify,
                 interval=HB_INTERVAL, timeout=None, grace=None,
                 expected=None):
        self.pid = pid
        self._peers = peers
        self._clock = clock
        self._send_heartbeats = send_heartbeats
        self._notify = notify
        self.interval = interval
        self.timeout = 4 * interval if timeout is None else timeout
        self.grace = self.timeout if grace is None else grace
        self._expected = None if expected is None else frozenset(expected)
        self._unheard = (
            None if expected is None else set(self._expected) - {pid}
        )
        self._last_heard = {}
        #: The component last handed to ``notify`` (``None`` before the
        #: first report).
        self.reported = None
        self._started_at = clock.now

    # -- Evidence ----------------------------------------------------------

    def heard(self, src):
        """Any frame from ``src`` proves it alive and reachable; report
        at once if that is news."""
        self._last_heard[src] = self._clock.now
        reported = self.reported
        if reported is not None:
            if src not in reported:
                self._report(self.component())
            return
        unheard = self._unheard
        if unheard is None or src not in unheard:
            return
        unheard.discard(src)
        if not unheard:
            estimate = self.component()
            # A member heard early may have expired since; it has to be
            # heard again before the evidence is complete.
            unheard.update(self._expected - estimate)
            if not unheard:
                self._report(estimate)

    def suspect(self, src):
        """``src``'s address refused the redial of a lost connection: it
        crashed.  Forget its evidence, and report at once if it was in
        the reported component."""
        self._last_heard.pop(src, None)
        reported = self.reported
        if reported is not None and src in reported:
            self._report(self.component())

    def component(self):
        """The current estimate: self plus every recently-heard peer."""
        horizon = self._clock.now - self.timeout
        alive = {
            peer
            for peer in self._peers()
            # A never-heard peer is never "alive" -- early on, any
            # sentinel time would sit inside the horizon and fabricate
            # connectivity to peers that were never there.
            if self._last_heard.get(peer) is not None
            and self._last_heard[peer] >= horizon
        }
        alive.add(self.pid)
        return frozenset(alive)

    # -- Reporting ---------------------------------------------------------

    def poll(self):
        """One tick: prune, beacon, then report the component if it
        changed."""
        # Evidence for peers no longer in the address book is dropped:
        # without this, ``_last_heard`` grows without bound over churn
        # in a long-lived deployment, and a peer that is removed and
        # later re-added would be resurrected by its *stale* timestamps
        # instead of having to prove itself alive again.
        known = set(self._peers())
        for peer in sorted(self._last_heard):
            if peer not in known:
                del self._last_heard[peer]
        self._send_heartbeats()
        estimate = self.component()
        if self.reported is None:
            # The grace is a cap: complete evidence never waits for it.
            early = self._expected is not None and self._expected <= estimate
            if not early and self._clock.now - self._started_at < self.grace:
                return None
        self._report(estimate)
        return estimate

    def _report(self, estimate):
        if estimate != self.reported:
            self.reported = estimate
            self._notify(estimate)
