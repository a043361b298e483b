"""The percentile rule, the spread measure and normalisation."""

import pytest

from benchmarks.gcsbench import stats


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 95) == 95
    assert stats.percentile(values, 100) == 100
    assert stats.percentile([4, 1, 3, 2], 50) == 2   # no interpolation
    assert stats.percentile([7], 99) == 7


def test_percentile_rejects_nonsense():
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1], 0)


def test_tail_needs_ten_samples_beyond_it():
    assert stats.samples_beyond(1500, 99) == 15
    assert stats.highest_supported_tail(1500) == 99.0
    assert stats.highest_supported_tail(1000) == 99.0     # exactly ten
    assert stats.highest_supported_tail(999) == 95.0
    assert stats.highest_supported_tail(200) == 95.0
    assert stats.highest_supported_tail(100) == 90.0
    assert stats.highest_supported_tail(50) is None
    assert stats.highest_supported_tail(20000) == 99.9


def test_spread_is_interquartile_over_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    import statistics
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.spread(values) == pytest.approx((q3 - q1) / 14.5)
    assert stats.spread([3.0]) == 0.0


def test_normalisation_arithmetic():
    # A host 1.6x slower than the reference: rates read low, times high.
    assert stats.normalise(200.0, stats.RATE, 1.6) == pytest.approx(320.0)
    assert stats.normalise(32.0, stats.TIME, 1.6) == pytest.approx(20.0)
    assert stats.normalise(1.05, stats.RAW, 1.6) == 1.05
    with pytest.raises(ValueError):
        stats.normalise(1.0, "speed", 1.0)
