"""The speed probe: its cost, and the warped clock's arithmetic."""

import statistics

import pytest

from benchmarks.gcsbench import probe


def test_kernel_scans_to_the_last_cell():
    assert probe.kernel() is True


def test_probe_costs_at_most_two_percent_of_the_loop():
    slices = [probe.time_slice() for _ in range(40)]
    assert statistics.median(slices) / 1e6 <= 0.02 * probe.PERIOD_S


def test_warp_on_a_uniformly_slow_host_is_a_plain_division():
    # Every slice twice the reference: the host ran at half speed.
    samples = [(10.0 + i, 5.0 + 0.5 * i, 2000.0) for i in range(4)]
    warp = probe.Warp(samples, ref_slice_us=1000.0)
    assert warp.tau(10.0) == 0.0
    assert warp.tau(12.0) == pytest.approx(1.0)
    assert warp.tau(14.0) == pytest.approx(2.0)      # beyond the samples
    assert warp.cpu_tau(13.0, 6.5) == pytest.approx(0.75)
    # 300 requests in 3 wall seconds = 100/s raw, 200/s at reference speed.
    assert 300 / (warp.tau(13.0) - warp.tau(10.0)) == pytest.approx(200.0)


def test_warp_removes_a_speed_flip_where_it_happened():
    # Fast for two seconds, slow (1.5x) for two; median-of-three
    # smoothing leaves a step this clean alone.
    slices = [1000.0] * 3 + [1500.0] * 3
    samples = [(float(i), 0.0, s) for i, s in enumerate(slices)]
    warp = probe.Warp(samples, ref_slice_us=1000.0)
    assert warp.tau(2.0) == pytest.approx(2.0)
    assert warp.tau(3.0) - warp.tau(2.0) == pytest.approx(1 / 1.25)
    assert warp.tau(5.0) - warp.tau(3.0) == pytest.approx(2 / 1.5)


def test_one_outlying_slice_is_smoothed_away():
    slices = [1000.0, 1000.0, 4000.0, 1000.0, 1000.0]
    samples = [(float(i), 0.0, s) for i, s in enumerate(slices)]
    warp = probe.Warp(samples, ref_slice_us=1000.0)
    assert warp.tau(4.0) == pytest.approx(4.0)


def test_warp_needs_two_samples():
    with pytest.raises(ValueError):
        probe.Warp([(0.0, 0.0, 1000.0)])
