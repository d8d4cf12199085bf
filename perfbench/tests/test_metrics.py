import gc

import pytest

from perfbench import harness, hostspeed, metrics
from perfbench.workloads import Repeat


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    samples = [float(i) for i in range(1, 101)]  # 1..100, shuffled below
    samples = samples[50:] + samples[:50]
    value, pct, n = metrics.tail(samples)
    assert (value, pct, n) == (90.0, 90.0, 100)
    assert sum(1 for s in samples if s > value) == 10


def test_tail_with_eleven_samples_is_the_smallest():
    value, pct, n = metrics.tail([5.0, 1.0, 9.0, 2.0, 8.0, 3.0, 7.0, 4.0, 6.0, 10.0, 11.0])
    assert value == 1.0
    assert pct == pytest.approx(100.0 / 11)
    assert n == 11


def test_tail_counts_ties_by_rank():
    value, _, _ = metrics.tail([1.0] * 5 + [2.0] * 20)
    assert value == 2.0  # the 15th smallest of 25


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        metrics.tail([1.0] * 10)


def test_retention_skips_the_first_fifth_and_compares_second_with_last():
    # 10 batches of 100 trips.  Fifths of two batches each: the warm-up
    # fifth is very fast (reorder hold-back), the second fifth runs at
    # 1000 trips/s, the middle at 500, the last fifth at 250.
    trips = [100] * 10
    seconds = [0.01, 0.01, 0.1, 0.1, 0.2, 0.2, 0.2, 0.2, 0.4, 0.4]
    assert metrics.retention([(trips, seconds)]) == pytest.approx(0.25)


def test_retention_windows_count_trips_not_batches():
    # With 7 batches a fifth is one batch: early = batch 1, late = batch 6.
    trips7 = [1, 2, 3, 4, 5, 6, 7]
    assert metrics.retention([(trips7, [1.0] * 7)]) == pytest.approx(7 / 2)


def test_retention_pools_the_windows_of_all_repeats():
    # Repeat A: early 100 trips in 1 s, late 100 in 2 s.  Repeat B: early
    # 100 in 1 s, late 100 in 8 s (a host hiccup).  Pooled: 200/10 over
    # 200/2, not the median or mean of the per-repeat 0.5 and 0.125.
    a = ([100] * 5, [0.5, 1.0, 1.5, 1.5, 2.0])
    b = ([100] * 5, [0.5, 1.0, 1.5, 1.5, 8.0])
    assert metrics.retention([a, b]) == pytest.approx((200 / 10) / (200 / 2))


def test_retention_needs_five_aligned_batches():
    with pytest.raises(ValueError):
        metrics.retention([([1, 1, 1, 1], [1.0] * 4)])
    with pytest.raises(ValueError):
        metrics.retention([([1] * 6, [1.0] * 5)])


def test_probe_runs_with_the_collector_off_and_restores_its_state():
    assert gc.isenabled()
    assert hostspeed.probe() > 0
    assert gc.isenabled()
    gc.disable()
    try:
        hostspeed.probe()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_host_factor_is_the_rolling_median_probe_to_alpha():
    w, nominal = hostspeed.WINDOW, hostspeed.NOMINAL_S
    after = [2.1 * nominal] * (2 * w + 1) + [1.05 * nominal] * (2 * w + 1)
    after[0] = 50 * nominal  # one slow probe moves no factor
    before = [1.9 * nominal] * (2 * w + 1) + [0.95 * nominal] * (2 * w + 1)
    factors, skew = hostspeed.factors(before, after)
    assert skew == pytest.approx(2.1 / 1.9)
    assert factors[0] == pytest.approx(2.0**hostspeed.ALPHA)
    assert factors[w] == pytest.approx(2.0**hostspeed.ALPHA)
    assert factors[-1] == pytest.approx(1.0)
    assert factors == sorted(factors, reverse=True)


def test_after_batch_probes_much_slower_than_before_fall_back_to_raw():
    before = [0.002, 0.002, 0.002]
    after = [0.004, 0.004, 0.002]  # work left running slows the probe
    factors, skew = hostspeed.factors(before, after)
    assert skew == pytest.approx(2.0)
    assert factors == [1.0, 1.0, 1.0]


def _repeat(batch_s, host_factor):
    return Repeat(
        setup_s=0.01, batch_trips=[10] * len(batch_s), batch_s=batch_s,
        wall_s=sum(batch_s), batch_factors=[host_factor] * len(batch_s),
        offered=10 * len(batch_s),
        served=10 * len(batch_s), duplicates=0, disk_bytes=1000,
        outcome_digest="", journal_digest="",
    )


def test_serving_times_are_scaled_by_the_host_factor():
    batches = [0.01 * (i + 1) for i in range(20)]
    nominal, detail = harness.end_to_end([_repeat(batches, 1.0)] * 3, [0.01], 3)
    slow, slow_detail = harness.end_to_end(
        [_repeat([2 * t for t in batches], 2.0)] * 3, [0.01], 3
    )
    for name in ("trips_per_s", "batch_ms_p50", "batch_ms_tail", "retention"):
        assert slow[name]["value"] == pytest.approx(nominal[name]["value"])
    assert slow_detail["raw"]["trips_per_s"] == pytest.approx(
        detail["raw"]["trips_per_s"] / 2
    )
    assert slow_detail["raw"]["batch_ms_p50"] == pytest.approx(
        2 * detail["raw"]["batch_ms_p50"]
    )
