"""Load generators that live on the cluster's event loop.

Both generators are started once (through ``RuntimeCluster.call_node``)
and from then on run as loop callbacks next to the nodes they load: a
request costs the system under test one ``bcast``/``cbcast`` call, not a
cross-thread round trip.  The applications' delivery upcalls feed
:meth:`LoadGen.delivered`, which is how a session learns its reply came.

- :class:`ClosedLoop` -- ``SESSIONS`` callers that each wait for their
  previous request to be delivered *at their own node* before sending
  the next; a slow system receives less load.
- :class:`OpenLoop` -- requests leave on a fixed schedule whatever the
  state of the group; latency counts from the *due* time, so the wait a
  stall imposes on later requests is measured, and generator lateness is
  reported.
"""

import threading
import time
from collections import defaultdict

from benchmarks.gcsbench.workloads import request_index

#: A closed-loop slot whose request is not committed within this many
#: seconds is counted failed and re-armed with the next request.
SLOT_TIMEOUT_S = 10.0

_WATCHDOG_PERIOD_S = 0.25


class Ledger:
    """Per-request timestamps (``time.perf_counter`` seconds)."""

    def __init__(self, count, tracked):
        self.count = count
        #: Members whose delivery "everywhere" waits for.
        self.tracked = frozenset(tracked)
        self.origin = [None] * count
        #: Submission time (closed loop) or due time (open loop).
        self.start = [None] * count
        self.committed = [None] * count   # delivered at the origin node
        self.everywhere = [None] * count  # delivered at every tracked member
        self._seen = [0] * count
        self.failed = set()
        #: Time at which the k-th request (1-based) became delivered
        #: everywhere: ``completions[k - 1]``.
        self.completions = []
        self.submitted_by = defaultdict(list)

    def submit(self, index, pid, start):
        self.origin[index] = pid
        self.start[index] = start
        self.submitted_by[pid].append(index)

    def deliver(self, index, pid, now):
        """Record a delivery; returns True when this is the origin's own
        (the request's commit point)."""
        if pid in self.tracked:
            self._seen[index] += 1
            if (
                self._seen[index] == len(self.tracked)
                and self.everywhere[index] is None
            ):
                self.everywhere[index] = now
                self.completions.append(now)
        if pid == self.origin[index] and self.committed[index] is None:
            self.committed[index] = now
            return True
        return False

    def settled(self):
        """Requests delivered everywhere, or given up on."""
        return len(self.completions) + sum(
            1 for i in self.failed if self.everywhere[i] is None
        )

    def unfinished(self):
        """Indices not delivered at every tracked member (yet)."""
        return [i for i in range(self.count) if self.everywhere[i] is None]


class LoadGen:
    """What the two loops share: the ledger, the delivery upcall and the
    completion signal the driving thread waits on."""

    def __init__(self, payloads, tracked, submit, wrap=None):
        self.payloads = payloads
        self.ledger = Ledger(len(payloads), tracked)
        self._submit = submit
        self._cursor = 0
        self._loop = None
        self.done = threading.Event()
        #: Called as ``on_progress(completed)`` after each request
        #: becomes delivered everywhere (the harness snapshots the span
        #: table at the three-quarter mark through it).
        self.on_progress = None
        self.lateness_max_s = 0.0
        self._stopped = False
        if wrap is not None:
            self.delivered = wrap(self.delivered)
            self._step = wrap(self._step)

    clock = staticmethod(time.perf_counter)

    def start(self, loop):
        """Begin generating; call on ``loop``'s own thread."""
        self._loop = loop
        self._begin()

    def stop(self):
        """Stop generating (the harness gave up or the run is over);
        call on the loop's own thread."""
        self._stopped = True

    def delivered(self, pid, payload):
        """Application upcall: ``payload`` was delivered at ``pid``."""
        index = request_index(payload)
        ledger = self.ledger
        before = len(ledger.completions)
        if ledger.deliver(index, pid, self.clock()):
            self._committed(index)
        if len(ledger.completions) != before:
            if self.on_progress is not None:
                self.on_progress(len(ledger.completions))
            self._maybe_done()

    def _maybe_done(self):
        if (
            self._cursor >= self.ledger.count
            and self.ledger.settled() >= self.ledger.count
        ):
            self.done.set()

    def _send(self, pid, start):
        index = self._cursor
        self._cursor += 1
        self.ledger.submit(index, pid, start)
        self._submit(pid, self.payloads[index])
        return index

    # -- Overridden ----------------------------------------------------------

    def _begin(self):
        raise NotImplementedError

    def _step(self, *args):
        raise NotImplementedError

    def _committed(self, index):
        """``index`` was delivered at its origin."""


class ClosedLoop(LoadGen):
    """``len(session_pids)`` sessions over a fixed request count."""

    def __init__(self, payloads, tracked, submit, session_pids, wrap=None):
        super().__init__(payloads, tracked, submit, wrap)
        self._session_pids = list(session_pids)
        self._outstanding = {}   # session -> request index
        self._session_of = {}    # request index -> session

    def _begin(self):
        for session in range(len(self._session_pids)):
            self._step(session)
        self._loop.call_later(_WATCHDOG_PERIOD_S, self._watchdog)

    def _step(self, session):
        """Send ``session``'s next request, if any are left."""
        self._outstanding.pop(session, None)
        if self._stopped:
            return
        if self._cursor >= self.ledger.count:
            self._maybe_done()
            return
        index = self._send(self._session_pids[session], self.clock())
        self._outstanding[session] = index
        self._session_of[index] = session

    def _committed(self, index):
        session = self._session_of.pop(index, None)
        if session is not None:
            # Like a client that reads its reply and then writes the
            # next request: a fresh loop callback, never a re-entrant
            # bcast from inside the delivery upcall.
            self._loop.call_soon(self._step, session)

    def _watchdog(self):
        if self._stopped:
            return
        now = self.clock()
        for session, index in sorted(self._outstanding.items()):
            if (
                self.ledger.committed[index] is None
                and now - self.ledger.start[index] > SLOT_TIMEOUT_S
            ):
                self.ledger.failed.add(index)
                self._session_of.pop(index, None)
                self._step(session)
        self._loop.call_later(_WATCHDOG_PERIOD_S, self._watchdog)


class OpenLoop(LoadGen):
    """``rate`` requests per second, alternating over ``client_pids``."""

    def __init__(self, payloads, tracked, submit, client_pids, rate,
                 wrap=None):
        super().__init__(payloads, tracked, submit, wrap)
        self._client_pids = list(client_pids)
        self._period = 1.0 / rate
        self.t0 = None

    def due(self, index):
        return self.t0 + index * self._period

    def _begin(self):
        self.t0 = self.clock()
        self._step()

    def _step(self):
        if self._stopped:
            return
        now = self.clock()
        count = self.ledger.count
        while self._cursor < count and self.due(self._cursor) <= now:
            due = self.due(self._cursor)
            self.lateness_max_s = max(self.lateness_max_s, now - due)
            pid = self._client_pids[self._cursor % len(self._client_pids)]
            self._send(pid, due)
            now = self.clock()
        if self._cursor < count:
            self._loop.call_later(
                max(0.0, self.due(self._cursor) - now), self._step
            )
