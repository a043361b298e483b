"""The arithmetic every reported number goes through.

Kept free of any import from the system under test so the rules can be
tested on synthetic inputs (``tests/test_stats.py``).
"""

import math
import statistics

#: Candidate tail percentiles, lowest first.
TAILS = (90.0, 95.0, 99.0, 99.9)

#: How a metric reacts to host speed: a ``rate`` falls on a slow host
#: (multiply by the speed index), a ``time`` rises (divide), ``raw``
#: metrics are timer- or count-bound and are reported as measured.
RATE, TIME, RAW = "rate", "time", "raw"


def percentile(values, q):
    """Nearest-rank percentile: the smallest sample with at least ``q``
    percent of the samples at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 100.0:
        raise ValueError("percentile rank {0!r} not in (0, 100]".format(q))
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n, q):
    """How many of ``n`` samples lie strictly beyond the nearest-rank
    ``q``-th percentile."""
    return n - max(1, math.ceil(q / 100.0 * n))


def highest_supported_tail(n, minimum_beyond=10):
    """The highest of :data:`TAILS` with at least ``minimum_beyond``
    samples beyond it, or ``None`` when even the lowest has too few."""
    best = None
    for q in TAILS:
        if samples_beyond(n, q) >= minimum_beyond:
            best = q
    return best


def spread(values):
    """Inter-quartile distance as a share of the median (the driver's
    steadiness measure); 0.0 for fewer than two values."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else float("inf")


def normalise(value, kind, speed_index):
    """Remove host speed from a CPU-bound measurement.

    ``speed_index`` > 1 means this host ran the fixed probe kernel that
    much slower than the reference host.
    """
    if kind == RATE:
        return value * speed_index
    if kind == TIME:
        return value / speed_index
    if kind == RAW:
        return value
    raise ValueError("unknown normalisation kind {0!r}".format(kind))
