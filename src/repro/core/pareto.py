"""Operational-vs-embodied Pareto analysis (paper Fig. 14).

Each evaluated design is a point in the plane (embodied carbon, operational
carbon).  A design is Pareto-optimal if no other design is at least as good
on both axes and strictly better on one.  The frontier's shape carries the
paper's headline lesson: it bends sharply — early investments buy large
operational reductions cheaply, then a long expensive tail stretches toward
zero operational carbon — and points that reach the axis (zero operational
carbon) always involve batteries.
"""

from __future__ import annotations

from typing import Callable, Sequence, Tuple

from .evaluate import DesignEvaluation
from ..timeseries.stats import is_exact_zero


def pareto_frontier(
    evaluations: Sequence[DesignEvaluation],
    x: Callable[[DesignEvaluation], float] = lambda e: e.embodied_tons,
    y: Callable[[DesignEvaluation], float] = lambda e: e.operational_tons,
) -> Tuple[DesignEvaluation, ...]:
    """The subset of ``evaluations`` not dominated on (x, y), both minimized.

    Returned sorted by ascending ``x`` (so ``y`` descends along the result).
    Ties are kept only once per ``x`` value: among equal-``x`` points only a
    minimal-``y`` representative survives.
    """
    if not evaluations:
        return ()
    ordered = sorted(evaluations, key=lambda e: (x(e), y(e)))
    frontier = []
    best_y = float("inf")
    for evaluation in ordered:
        value = y(evaluation)
        if value < best_y - 1e-12:
            frontier.append(evaluation)
            best_y = value
    return tuple(frontier)


def knee_point(frontier: Sequence[DesignEvaluation]) -> DesignEvaluation:
    """The frontier point minimizing total carbon (operational + embodied).

    With both axes in the same units (tCO2eq/yr), the carbon-optimal design
    is simply the frontier point with the smallest coordinate sum — the
    "knee" where the long tail stops paying.
    """
    if not frontier:
        raise ValueError("cannot find the knee of an empty frontier")
    return min(frontier, key=lambda e: e.total_tons)


def frontier_tail_ratio(frontier: Sequence[DesignEvaluation]) -> float:
    """Embodied cost of the last frontier step relative to the first.

    Quantifies the "long tail": the ratio of embodied carbon at the
    lowest-operational end of the frontier to embodied carbon at the knee.
    Large values mean chasing the final percent of coverage is expensive.
    """
    if len(frontier) < 2:
        raise ValueError("need at least two frontier points")
    knee = knee_point(frontier)
    tail = min(frontier, key=lambda e: e.operational_tons)
    if is_exact_zero(knee.embodied_tons):
        raise ValueError("knee has zero embodied carbon; ratio undefined")
    return tail.embodied_tons / knee.embodied_tons
