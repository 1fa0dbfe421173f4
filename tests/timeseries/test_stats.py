"""Unit tests for trace summary statistics."""

import numpy as np
import pytest

from repro.timeseries import (
    DEFAULT_CALENDAR,
    HourlySeries,
    best_days_ratio,
    coefficient_of_variation,
    daily_total_histogram,
    histogram,
    pearson_correlation,
    worst_days_ratio,
)
from repro.timeseries.stats import bitwise_equal, is_exact_zero

N = DEFAULT_CALENDAR.n_hours


class TestExactComparisons:
    def test_ieee_caveats_hold(self):
        assert is_exact_zero(-0.0)
        assert not is_exact_zero(5e-324)
        assert bitwise_equal(0.1 + 0.2, 0.30000000000000004)
        assert not bitwise_equal(0.1 + 0.2, 0.3)
        assert bitwise_equal(0.0, -0.0)
        assert not bitwise_equal(float("nan"), float("nan"))


class TestHistogram:
    def test_counts_sum_to_samples(self):
        h = histogram([1, 2, 3, 4, 5], n_bins=2)
        assert h.n_samples == 5

    def test_bin_edges_monotone(self):
        h = histogram(np.random.default_rng(0).normal(size=100), n_bins=10)
        edges = h.bin_edges
        assert all(a < b for a, b in zip(edges, edges[1:]))

    def test_fractions_sum_to_one(self):
        h = histogram([1, 2, 3, 4], n_bins=4)
        assert sum(h.fractions()) == pytest.approx(1.0)

    def test_bin_centers_are_midpoints(self):
        h = histogram([0.0, 1.0], n_bins=2)
        assert h.bin_centers == (0.25, 0.75)

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            histogram([], n_bins=3)

    def test_zero_bins_rejected(self):
        with pytest.raises(ValueError):
            histogram([1.0], n_bins=0)

    def test_daily_total_histogram_counts_days(self):
        s = HourlySeries.constant(1.0)
        h = daily_total_histogram(s, n_bins=5)
        assert h.n_samples == DEFAULT_CALENDAR.n_days


class TestDayRatios:
    def test_best_days_of_constant_is_one(self):
        s = HourlySeries.constant(2.0)
        assert best_days_ratio(s) == pytest.approx(1.0)
        assert worst_days_ratio(s) == pytest.approx(1.0)

    def test_best_exceeds_worst_for_variable_trace(self):
        rng = np.random.default_rng(3)
        s = HourlySeries(rng.uniform(0, 10, N), DEFAULT_CALENDAR)
        assert best_days_ratio(s) > 1.0 > worst_days_ratio(s)

    def test_n_days_validation(self):
        s = HourlySeries.constant(1.0)
        with pytest.raises(ValueError):
            best_days_ratio(s, n_days=0)
        with pytest.raises(ValueError):
            worst_days_ratio(s, n_days=100000)


class TestCorrelationAndCv:
    def test_perfect_correlation(self):
        x = np.arange(100.0)
        assert pearson_correlation(x, 2 * x + 1) == pytest.approx(1.0)

    def test_perfect_anticorrelation(self):
        x = np.arange(100.0)
        assert pearson_correlation(x, -x) == pytest.approx(-1.0)

    def test_constant_vector_rejected(self):
        with pytest.raises(ValueError):
            pearson_correlation([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pearson_correlation([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_cv_of_constant_is_zero(self):
        assert coefficient_of_variation([5.0, 5.0, 5.0]) == 0.0

    def test_cv_zero_mean_rejected(self):
        with pytest.raises(ValueError):
            coefficient_of_variation([-1.0, 1.0])
