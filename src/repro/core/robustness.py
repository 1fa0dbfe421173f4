"""Robustness of a design across weather years.

The paper evaluates every design against one historical year (2020).  A
design tuned to one year's weather may disappoint in the next — a year with
a deeper wind valley needs more storage; a sunnier one wastes it.  This
module re-evaluates a fixed design across many independently drawn weather
years (different synthetic seeds) and reports the distribution of coverage
and carbon, so an operator can read worst-case rather than single-draw
numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from ..carbon import DEFAULT_EMBODIED_MODEL, EmbodiedCarbonModel
from ..datacenter import UtilizationProfile
from .design import DesignPoint, Strategy
from .evaluate import DesignEvaluation, build_site_context, evaluate_design
from ..timeseries.stats import is_exact_zero


@dataclass(frozen=True)
class RobustnessReport:
    """A design's outcome distribution across weather years.

    Attributes
    ----------
    design:
        The fixed design evaluated.
    strategy:
        The portfolio it was run under.
    evaluations:
        One evaluation per weather seed, in seed order.
    """

    design: DesignPoint
    strategy: Strategy
    evaluations: Tuple[DesignEvaluation, ...]

    def _coverages(self) -> np.ndarray:
        return np.array([e.coverage for e in self.evaluations])

    def _totals(self) -> np.ndarray:
        return np.array([e.total_tons for e in self.evaluations])

    @property
    def n_years(self) -> int:
        """Number of weather years evaluated."""
        return len(self.evaluations)

    def mean_coverage(self) -> float:
        """Average coverage across weather years."""
        return float(self._coverages().mean())

    def worst_coverage(self) -> float:
        """Coverage in the worst weather year — the number to plan against."""
        return float(self._coverages().min())

    def mean_total_tons(self) -> float:
        """Average total carbon across weather years."""
        return float(self._totals().mean())

    def worst_total_tons(self) -> float:
        """Total carbon in the worst (dirtiest) weather year."""
        return float(self._totals().max())

    def total_relative_spread(self) -> float:
        """(max - min) / mean of total carbon across years."""
        totals = self._totals()
        mean = totals.mean()
        if is_exact_zero(mean):
            raise ValueError("spread undefined for zero mean total carbon")
        return float((totals.max() - totals.min()) / mean)


def evaluate_across_years(
    state: str,
    design: DesignPoint,
    strategy: Strategy,
    seeds: Sequence[int] = tuple(range(5)),
    year: int = 2020,
    profile: UtilizationProfile = UtilizationProfile(),
    embodied: EmbodiedCarbonModel = DEFAULT_EMBODIED_MODEL,
) -> RobustnessReport:
    """Evaluate one design under many independent weather draws.

    Each seed produces a fresh synthetic weather year *and* demand trace for
    the site; the design is held fixed.  Deterministic in all arguments.

    Parameters
    ----------
    state:
        Table-1 site code.
    design, strategy:
        The fixed design and portfolio to stress.
    seeds:
        Weather seeds; at least one required.
    """
    if not seeds:
        raise ValueError("need at least one seed")
    if len(set(seeds)) != len(seeds):
        raise ValueError(f"seeds must be distinct, got {list(seeds)}")
    evaluations = []
    for seed in seeds:
        context = build_site_context(
            state, year=year, seed=seed, profile=profile, embodied=embodied
        )
        evaluations.append(evaluate_design(context, design, strategy))
    return RobustnessReport(
        design=design, strategy=strategy, evaluations=tuple(evaluations)
    )
