import math

import pytest

from benchmarks.stack.stats import (
    compare_metric,
    harmonic_mean,
    highest_supported_percentile,
    percentile,
    quartiles,
    spread,
)


@pytest.mark.parametrize(
    "n, expected",
    [(24, 50.0), (99, 50.0), (100, 90.0), (199, 90.0), (200, 95.0), (1000, 99.0),
     (10_000, 99.9)],
)
def test_tail_percentile_needs_ten_samples_beyond_it(n, expected):
    assert highest_supported_percentile(n) == expected


def test_percentile_interpolates_and_lets_failures_own_the_tail():
    assert percentile([1, 2, 3, 4, 5], 50) == 3
    assert percentile([1, 2, 3, 4], 50) == 2.5
    latencies = [1.0] * 8 + [math.inf] * 2
    assert percentile(latencies, 50) == 1.0
    assert percentile(latencies, 90) == math.inf


def test_spread_is_the_quartile_distance_over_the_median():
    values = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19]
    q1, q2, q3 = quartiles(values)
    assert spread(values) == (q3 - q1) / q2
    assert harmonic_mean([1.0, 2.0, 4.0]) == pytest.approx(3 / 1.75)


def test_compare_verdicts_follow_the_guide():
    base = [100 + i * 0.1 for i in range(10)]
    same = compare_metric(base, [v + 0.5 for v in base], better="lower", bound=0.10)
    assert same.verdict == "within-bound" and same.change == pytest.approx(0.005, rel=0.1)
    worse = compare_metric(base, [v * 1.2 for v in base], better="lower", bound=0.10)
    assert worse.verdict == "regression"
    # a throughput: lower is worse
    worse = compare_metric(base, [v * 0.8 for v in base], better="higher", bound=0.10)
    assert worse.verdict == "regression" and worse.change > 0.10
    gain = compare_metric(base, [v * 0.8 for v in base], better="lower", bound=0.10)
    assert gain.verdict == "gain" and gain.wins == 10
    # nine of ten pairs is enough, eight is not, and fewer than ten pairs never is
    nine = [v * 0.8 for v in base[:9]] + [base[9] * 1.01]
    assert compare_metric(base, nine, better="lower", bound=0.10).verdict == "gain"
    eight = [v * 0.8 for v in base[:8]] + [v * 1.01 for v in base[8:]]
    assert compare_metric(base, eight, better="lower", bound=0.10).verdict != "gain"
    assert compare_metric(base[:3], [v * 0.8 for v in base[:3]], better="lower",
                          bound=0.10).verdict == "within-bound"
    noisy = [60, 80, 100, 120, 140, 70, 90, 110, 130, 100]
    unresolved = compare_metric(noisy, noisy[::-1], better="lower", bound=0.10)
    assert unresolved.verdict == "unresolved"
