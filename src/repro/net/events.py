"""The discrete-event queue driving the network simulation."""

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable

#: Reasons a :meth:`EventQueue.run_to_quiescence` call stopped.
QUIESCENT = "quiescent"
MAX_TIME = "max_time"
MAX_EVENTS = "max_events"


class NonQuiescentError(RuntimeError):
    """A run expected to quiesce was truncated by its event budget."""

    def __init__(self, status):
        self.status = status
        super().__init__(
            "run truncated after {0} events without quiescing "
            "(reason: {1})".format(status.fired, status.reason)
        )


@dataclass(frozen=True)
class QuiescenceStatus:
    """Outcome of :meth:`EventQueue.run_to_quiescence`.

    ``quiescent`` is True iff the queue genuinely drained; otherwise
    ``reason`` says which bound stopped the run (``max_time`` leaves the
    remaining events queued for later, ``max_events`` means the run was
    truncated mid-flight).
    """

    fired: int
    quiescent: bool
    reason: str

    def __bool__(self):
        return self.quiescent


@dataclass(order=True)
class _Event:
    time: float
    seq: int
    callback: Callable = field(compare=False)


class EventQueue:
    """A priority queue of timed callbacks with stable FIFO tie-breaking.

    Events at equal times fire in scheduling order (the ``seq`` counter),
    which makes runs deterministic without relying on heap internals.
    """

    def __init__(self):
        self._heap = []
        self._counter = itertools.count()
        self.now = 0.0

    def schedule(self, delay, callback):
        """Schedule ``callback`` to run ``delay`` time units from now."""
        if delay < 0:
            raise ValueError("delay must be nonnegative")
        event = _Event(self.now + delay, next(self._counter), callback)
        heapq.heappush(self._heap, event)
        return event

    def __len__(self):
        return len(self._heap)

    def run_until(self, deadline):
        """Fire events with time <= deadline; advance ``now`` to deadline."""
        while self._heap and self._heap[0].time <= deadline:
            event = heapq.heappop(self._heap)
            self.now = event.time
            event.callback()
        self.now = max(self.now, deadline)

    def run_to_quiescence(self, max_time=float("inf"), max_events=1000000):
        """Fire events until none remain (or a bound trips).

        Returns a :class:`QuiescenceStatus`; check ``status.quiescent`` (or
        truth-test the status) to distinguish a drained queue from a
        truncated run.
        """
        fired = 0
        while self._heap:
            event = heapq.heappop(self._heap)
            if event.time > max_time:
                # Out of simulated time; leave the event unfired.
                heapq.heappush(self._heap, event)
                return QuiescenceStatus(fired, False, MAX_TIME)
            self.now = event.time
            event.callback()
            fired += 1
            if fired >= max_events and len(self) > 0:
                return QuiescenceStatus(fired, False, MAX_EVENTS)
        return QuiescenceStatus(fired, True, QUIESCENT)
