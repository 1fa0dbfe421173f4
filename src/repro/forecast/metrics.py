"""Forecast accuracy metrics."""

from __future__ import annotations

import numpy as np
from ..timeseries.stats import is_exact_zero


def _pair(actual, forecast) -> tuple:
    a = np.asarray(actual, dtype=float)
    f = np.asarray(forecast, dtype=float)
    if a.shape != f.shape:
        raise ValueError(f"shape mismatch: actual {a.shape} vs forecast {f.shape}")
    if a.size == 0:
        raise ValueError("cannot score empty forecasts")
    return a, f


def mean_absolute_error(actual, forecast) -> float:
    """Mean of |actual - forecast|."""
    a, f = _pair(actual, forecast)
    return float(np.abs(a - f).mean())


def normalized_mae(actual, forecast) -> float:
    """MAE divided by the mean actual — comparable across trace scales.

    Raises when the actual signal has zero mean (nothing to normalize by).
    """
    a, f = _pair(actual, forecast)
    mean = a.mean()
    if is_exact_zero(mean):
        raise ValueError("normalized MAE undefined for a zero-mean actual")
    return float(np.abs(a - f).mean() / mean)
