"""The host-speed probe and the speed-normalised clock built from it.

This box runs the same pure-Python code at two speeds (README, "bimodal
host"), and flips between them on a timescale of about a second --
*inside* a measured window.  A fixed ~1 ms kernel shaped like the
stack's own hot path (a dataclass ``__eq__`` scan plus a JSON round
trip) is run on the event loop every :data:`PERIOD_S` during the window.

- ``host.speed_index`` is the median slice time over
  :data:`REF_SLICE_US`: > 1 means the host was that much slower than the
  reference.
- :class:`Warp` turns the slices into a clock that runs at reference
  speed: between two consecutive slices, wall time is divided by the
  index measured there.  Rates and latencies of CPU-bound work are read
  off that clock, which removes a speed flip at the time it happened
  instead of averaging it over the run (twelve identical runs of
  ``to_small_n3``: throughput spread 28 % raw, 11 % divided by the
  median index, 3 % on the warped clock).
"""

import bisect
import json
import statistics
import time
from dataclasses import dataclass

#: Median slice time of :func:`kernel` on the reference host in its fast
#: state.  A constant of the benchmark: changing it rescales every
#: normalised metric, so it only changes together with a new baseline.
REF_SLICE_US = 700.0

#: Seconds between probe slices (one ~1 ms slice per 100 ms <= 1.5 % of
#: loop time even in the slow state).
PERIOD_S = 0.1


@dataclass(frozen=True)
class _Cell:
    view: int
    seqno: int
    origin: str


_CELLS = [_Cell(i // 64, i % 64, "n{0}".format(i % 3)) for i in range(1280)]
_NEEDLE = _Cell(19, 63, "n1")  # equal to the last cell: a full scan
_DOC = [
    "t",
    [["s", "n1"],
     ["@", "Ordered",
      [["@", "ViewId", [["i", 1], ["s", "n1"]]], ["i", 4242],
       ["t", [["s", "put"], ["s", "key-17"], ["s", "0" * 32]]],
       ["s", "n2"]]]],
]


def kernel():
    """The fixed unit of work (no allocation that outlives the call)."""
    found = _NEEDLE in _CELLS
    for _ in range(48):
        json.loads(json.dumps(_DOC, separators=(",", ":")))
    return found


def time_slice():
    started = time.perf_counter_ns()
    kernel()
    return (time.perf_counter_ns() - started) / 1e3


class SpeedProbe:
    """Runs :func:`kernel` periodically on an event loop, keeping
    ``(wall seconds, process CPU seconds, slice microseconds)``."""

    def __init__(self, wrap=None, periodic=True):
        self.samples = []
        #: ``False`` keeps only the opening and closing slices: the
        #: probe-cost test's control arm.
        self._periodic = periodic
        self._loop = None
        self._handle = None
        if wrap is not None:
            self.sample = wrap(self.sample)

    def sample(self):
        wall, cpu = time.perf_counter(), time.process_time()
        self.samples.append((wall, cpu, time_slice()))

    def start(self, loop):
        """Take the opening slice and begin probing; call on ``loop``'s
        own thread."""
        self._loop = loop
        self.sample()
        if self._periodic:
            self._handle = loop.call_later(PERIOD_S, self._tick)

    def _tick(self):
        self.sample()
        self._handle = self._loop.call_later(PERIOD_S, self._tick)

    def stop(self):
        """Stop probing and take the closing slice."""
        if self._loop is not None:
            if self._handle is not None:
                self._handle.cancel()
                self._handle = None
            self._loop = None
            self.sample()

    def speed_index(self):
        return statistics.median(
            s for _, _, s in self.samples
        ) / REF_SLICE_US


class Warp:
    """A clock that advances at reference speed.

    ``samples`` are a :class:`SpeedProbe`'s, at least two.  Slices are
    smoothed by a median of three (one slice can catch a GC pause); an
    interval between two slices runs at the mean of their indices;
    outside the sampled range the nearest interval's speed holds.
    """

    def __init__(self, samples, ref_slice_us=REF_SLICE_US):
        if len(samples) < 2:
            raise ValueError("a warp needs at least two probe samples")
        slices = [s for _, _, s in samples]
        smooth = [
            statistics.median(slices[max(0, i - 1):i + 2])
            for i in range(len(slices))
        ]
        self._wall = [w for w, _, _ in samples]
        self._cpu = [c for _, c, _ in samples]
        self._index = [
            (a + b) / 2.0 / ref_slice_us
            for a, b in zip(smooth, smooth[1:])
        ]
        self._tau = [0.0]
        self._cpu_tau = [0.0]
        for i, index in enumerate(self._index):
            self._tau.append(
                self._tau[-1] + (self._wall[i + 1] - self._wall[i]) / index
            )
            self._cpu_tau.append(
                self._cpu_tau[-1] + (self._cpu[i + 1] - self._cpu[i]) / index
            )

    def _interval(self, wall):
        k = bisect.bisect_right(self._wall, wall) - 1
        return min(max(k, 0), len(self._index) - 1)

    def tau(self, wall):
        """Reference-speed seconds since the first sample."""
        k = self._interval(wall)
        return self._tau[k] + (wall - self._wall[k]) / self._index[k]

    def cpu_tau(self, wall, cpu):
        """Reference-speed process-CPU seconds since the first sample,
        for a mark that read ``cpu`` at ``wall``."""
        k = self._interval(wall)
        return self._cpu_tau[k] + (cpu - self._cpu[k]) / self._index[k]
