"""Tests for forecast accuracy metrics."""

import numpy as np
import pytest

from repro.forecast import mean_absolute_error, normalized_mae


class TestErrors:
    def test_perfect_forecast(self):
        actual = np.array([1.0, 2.0, 3.0])
        assert mean_absolute_error(actual, actual) == 0.0

    def test_known_mae(self):
        assert mean_absolute_error([0.0, 0.0], [1.0, -1.0]) == 1.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mean_absolute_error([1.0], [1.0, 2.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_absolute_error([], [])


class TestNormalizedMae:
    def test_scale_invariance(self):
        actual = np.array([10.0, 20.0])
        forecast = np.array([12.0, 18.0])
        small = normalized_mae(actual, forecast)
        large = normalized_mae(actual * 100, forecast * 100)
        assert small == pytest.approx(large)

    def test_zero_mean_rejected(self):
        with pytest.raises(ValueError):
            normalized_mae([0.0, 0.0], [1.0, 1.0])
