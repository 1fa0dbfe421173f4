"""Summary statistics over hourly traces.

These helpers back the paper's characterization figures: daily-total
histograms and yearly-average day profiles (Fig. 5), peak-to-trough swings
(Fig. 1, Fig. 3), and the "best ten days vs average" comparisons of §3.2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .series import HourlySeries


def is_exact_zero(value: float) -> bool:
    """Whether ``value`` is exactly ``0.0`` (or ``-0.0``), bitwise.

    The blessed spelling of the degenerate-case guards scattered through
    the pipeline (``capacity == 0.0``, ``mean == 0.0``): the name records
    that an exact — not approximate — comparison is intended, which is
    why the ``repro lint`` float-equality rule (RL005) points here.
    Tolerance checks belong in ``math.isclose``/``np.isclose`` instead.
    """
    return value == 0.0  # repro-lint: disable=RL005 — the blessed exact check itself


def bitwise_equal(a: float, b: float) -> bool:
    """Whether ``a`` and ``b`` are the same IEEE-754 value.

    The blessed spelling for the repo's bitwise-determinism assertions
    (serial == parallel == shm == resumed): plain ``==`` semantics, but
    the name makes "exactly equal, no tolerance" reviewable.  Note the
    usual IEEE caveats apply: ``NaN != NaN`` and ``0.0 == -0.0``.
    """
    return a == b


@dataclass(frozen=True)
class Histogram:
    """A simple fixed-bin histogram.

    Attributes
    ----------
    bin_edges:
        ``n_bins + 1`` monotonically increasing edges.
    counts:
        Number of samples per bin.
    """

    bin_edges: Tuple[float, ...]
    counts: Tuple[int, ...]

    @property
    def n_samples(self) -> int:
        """Total number of samples binned."""
        return int(sum(self.counts))

    @property
    def bin_centers(self) -> Tuple[float, ...]:
        """Midpoint of each bin."""
        edges = self.bin_edges
        return tuple((edges[i] + edges[i + 1]) / 2.0 for i in range(len(self.counts)))

    def fractions(self) -> Tuple[float, ...]:
        """Counts normalized to fractions of the total."""
        n = self.n_samples
        if n == 0:
            return tuple(0.0 for _ in self.counts)
        return tuple(c / n for c in self.counts)


def histogram(samples: Sequence[float], n_bins: int = 20) -> Histogram:
    """Histogram of arbitrary samples with ``n_bins`` equal-width bins."""
    if n_bins < 1:
        raise ValueError(f"n_bins must be >= 1, got {n_bins}")
    array = np.asarray(samples, dtype=float)
    if array.size == 0:
        raise ValueError("cannot histogram an empty sample set")
    counts, edges = np.histogram(array, bins=n_bins)
    return Histogram(tuple(float(e) for e in edges), tuple(int(c) for c in counts))


def daily_total_histogram(series: HourlySeries, n_bins: int = 20) -> Histogram:
    """Histogram of per-day energy totals — the right column of Figure 5.

    High spread in this histogram is the paper's fingerprint of a volatile
    (wind-dominated) region; a tight histogram marks steady solar regions.
    """
    return histogram(series.daily_totals(), n_bins=n_bins)


def best_days_ratio(series: HourlySeries, n_days: int = 10) -> float:
    """Mean daily total of the best ``n_days`` relative to the yearly mean.

    §3.2: "For BPAT, the best ten days of the year offer approximately 2.5
    times more renewable energy than the average."
    """
    if n_days < 1:
        raise ValueError(f"n_days must be >= 1, got {n_days}")
    totals = series.daily_totals()
    if n_days > totals.size:
        raise ValueError(f"n_days {n_days} exceeds days in year {totals.size}")
    mean = totals.mean()
    if is_exact_zero(mean):
        raise ValueError("ratio undefined when the yearly mean daily total is zero")
    best = np.sort(totals)[-n_days:]
    return float(best.mean() / mean)


def worst_days_ratio(series: HourlySeries, n_days: int = 10) -> float:
    """Mean daily total of the worst ``n_days`` relative to the yearly mean.

    Near-zero values flag the deep "supply valleys" that drive battery sizing
    in wind-only regions like Oregon/BPAT.
    """
    if n_days < 1:
        raise ValueError(f"n_days must be >= 1, got {n_days}")
    totals = series.daily_totals()
    if n_days > totals.size:
        raise ValueError(f"n_days {n_days} exceeds days in year {totals.size}")
    mean = totals.mean()
    if is_exact_zero(mean):
        raise ValueError("ratio undefined when the yearly mean daily total is zero")
    worst = np.sort(totals)[:n_days]
    return float(worst.mean() / mean)


def coefficient_of_variation(samples: Sequence[float]) -> float:
    """Standard deviation over mean — day-to-day volatility fingerprint."""
    array = np.asarray(samples, dtype=float)
    mean = array.mean()
    if is_exact_zero(mean):
        raise ValueError("coefficient of variation undefined for zero mean")
    return float(array.std() / mean)


def pearson_correlation(x: Sequence[float], y: Sequence[float]) -> float:
    """Pearson correlation between two equal-length sample vectors.

    Used by the Fig. 3 reproduction to quantify the CPU-utilization/power
    correlation of the energy-proportional server model.
    """
    ax = np.asarray(x, dtype=float)
    ay = np.asarray(y, dtype=float)
    if ax.shape != ay.shape:
        raise ValueError(f"shape mismatch: {ax.shape} vs {ay.shape}")
    if ax.size < 2:
        raise ValueError("need at least two samples for a correlation")
    if is_exact_zero(ax.std()) or is_exact_zero(ay.std()):
        raise ValueError("correlation undefined for a constant vector")
    return float(np.corrcoef(ax, ay)[0, 1])
