import pytest

from perfbench import stats


@pytest.mark.parametrize("n, q", [(0, None), (10, None), (19, None), (20, 50.0), (39, 50.0),
                                  (40, 75.0), (99, 75.0), (100, 90.0), (199, 90.0),
                                  (200, 95.0), (999, 95.0), (1000, 99.0), (10000, 99.9)])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, q):
    assert stats.tail_percentile(n) == q
    if q is not None:
        assert stats.samples_beyond(n, q) >= stats.MIN_BEYOND
        higher = [c for c in stats.TAIL_PERCENTILES if c > q]
        assert all(stats.samples_beyond(n, c) < stats.MIN_BEYOND for c in higher)


def test_nearest_rank_percentile():
    values = list(range(1, 101))  # 1..100
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 90) == 90
    assert stats.percentile(values, 99.9) == 100
    assert stats.percentile([7.0], 90) == 7.0
    # exactly ten samples lie beyond the reported p90 of 100 samples
    assert sum(v > stats.percentile(values, 90) for v in values) == 10


def test_timing_summary_reports_count_and_tail():
    s = stats.timing_summary([float(v) for v in range(40)])
    assert s["n"] == 40 and s["p50"] == 19.5
    assert s["tail_q"] == 75.0 and s["tail"] == 29.0
    short = stats.timing_summary([1.0, 2.0, 3.0])
    assert short["tail_q"] is None and short["tail"] is None and short["p50"] == 2.0


def test_quartile_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
    import statistics
    q1, med, q3 = statistics.quantiles(values, n=4)
    assert stats.quartile_spread(values) == pytest.approx((q3 - q1) / med)
