"""Coarse-to-fine refinement of the exhaustive search.

The paper's optimizer "exhaustively searches the design space", which scales
as the product of axis resolutions.  For fine answers (e.g. battery sizes to
the MWh) a dense grid is wasteful: the objective is smooth enough in
practice that zooming a coarse grid around its incumbent optimum finds
designs at least as good at a fraction of the evaluations.

:func:`refine_optimize` runs the plain exhaustive pass on the caller's grid,
then repeatedly rebuilds each continuous axis (solar, wind, battery) as a
finer grid spanning the incumbent's grid neighbourhood and re-optimizes.
The incumbent is always carried forward, so the result is never worse than
single-pass exhaustive search on the same initial grid.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Sequence, Tuple

from .design import DesignSpace, Strategy
from .evaluate import SiteContext
from .optimizer import OptimizationResult, optimize
from ..timeseries.stats import bitwise_equal


def _axis_neighbourhood(axis: Sequence[float], best: float, points: int) -> Tuple[float, ...]:
    """A finer grid spanning the two grid cells around ``best``.

    For an axis with one value (a collapsed resource) the axis is returned
    unchanged.
    """
    values = tuple(axis)
    if len(values) == 1:
        return values
    index = min(range(len(values)), key=lambda i: abs(values[i] - best))
    low = values[max(index - 1, 0)]
    high = values[min(index + 1, len(values) - 1)]
    if bitwise_equal(high, low):
        return (low,)
    step = (high - low) / (points - 1)
    return tuple(low + step * i for i in range(points))


def _zoom_space(space: DesignSpace, evaluation, points_per_axis: int) -> DesignSpace:
    """``space`` shrunk to the grid neighbourhood of one evaluation."""
    design = evaluation.design
    return dataclasses.replace(
        space,
        solar_mw=_axis_neighbourhood(
            space.solar_mw, design.investment.solar_mw, points_per_axis
        ),
        wind_mw=_axis_neighbourhood(
            space.wind_mw, design.investment.wind_mw, points_per_axis
        ),
        battery_mwh=_axis_neighbourhood(
            space.battery_mwh, design.battery_mwh, points_per_axis
        ),
    )


@dataclass(frozen=True)
class RefinementResult:
    """Outcome of coarse-to-fine optimization.

    Attributes
    ----------
    best:
        The best evaluation found across all rounds.
    rounds:
        The per-round :class:`OptimizationResult` objects, first = coarse.
    total_evaluations:
        Sum of designs evaluated across rounds.
    """

    best: "object"
    rounds: Tuple[OptimizationResult, ...]
    total_evaluations: int


def refine_optimize(
    context: SiteContext,
    space: DesignSpace,
    strategy: Strategy,
    n_rounds: int = 2,
    points_per_axis: int = 5,
) -> RefinementResult:
    """Exhaustive search followed by ``n_rounds`` of zoom refinement.

    Parameters
    ----------
    context, space, strategy:
        As for :func:`repro.core.optimizer.optimize`; ``space`` is the
        initial coarse grid.
    n_rounds:
        Zoom iterations after the coarse pass (each shrinks the search
        window to the incumbent's grid neighbourhood).
    points_per_axis:
        Resolution of each zoomed axis.
    """
    if n_rounds < 0:
        raise ValueError(f"n_rounds must be non-negative, got {n_rounds}")
    if points_per_axis < 2:
        raise ValueError(f"points_per_axis must be >= 2, got {points_per_axis}")

    rounds = [optimize(context, space, strategy)]
    best = rounds[0].best
    current_space = space

    for _ in range(n_rounds):
        current_space = _zoom_space(current_space, best, points_per_axis)
        result = optimize(context, current_space, strategy)
        rounds.append(result)
        if result.best.total_tons < best.total_tons:
            best = result.best

    return RefinementResult(
        best=best,
        rounds=tuple(rounds),
        total_evaluations=sum(r.n_evaluated for r in rounds),
    )
