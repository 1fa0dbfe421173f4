"""Tests for the Pareto-frontier analysis."""

import pytest

from repro.core import DesignPoint, Strategy, frontier_tail_ratio, knee_point, pareto_frontier
from repro.core.evaluate import DesignEvaluation
from repro.grid import RenewableInvestment


def make_eval(operational: float, embodied: float) -> DesignEvaluation:
    """A minimal evaluation with controlled carbon coordinates."""
    return DesignEvaluation(
        design=DesignPoint(investment=RenewableInvestment()),
        strategy=Strategy.RENEWABLES_ONLY,
        coverage=0.5,
        operational_tons=operational,
        renewables_embodied_tons=embodied,
        battery_embodied_tons=0.0,
        servers_embodied_tons=0.0,
        grid_import_mwh=0.0,
        surplus_mwh=0.0,
        moved_mwh=0.0,
        battery_cycles_per_day=0.0,
    )


class TestParetoFrontier:
    def test_empty_input(self):
        assert pareto_frontier([]) == ()

    def test_single_point(self):
        e = make_eval(10.0, 5.0)
        assert pareto_frontier([e]) == (e,)

    def test_dominated_point_removed(self):
        good = make_eval(10.0, 5.0)
        bad = make_eval(20.0, 10.0)  # worse on both axes
        assert pareto_frontier([good, bad]) == (good,)

    def test_incomparable_points_both_kept(self):
        a = make_eval(10.0, 5.0)
        b = make_eval(5.0, 10.0)
        frontier = pareto_frontier([a, b])
        assert set(id(e) for e in frontier) == {id(a), id(b)}

    def test_sorted_by_embodied(self):
        points = [make_eval(10.0 - i, float(i)) for i in range(5)]
        frontier = pareto_frontier(points)
        embodied = [e.embodied_tons for e in frontier]
        assert embodied == sorted(embodied)

    def test_operational_descends_along_frontier(self):
        points = [make_eval(10.0 - i, float(i)) for i in range(5)]
        frontier = pareto_frontier(points)
        operational = [e.operational_tons for e in frontier]
        assert operational == sorted(operational, reverse=True)

    def test_equal_x_keeps_best_y_only(self):
        a = make_eval(10.0, 5.0)
        b = make_eval(12.0, 5.0)
        frontier = pareto_frontier([b, a])
        assert frontier == (a,)


class TestKneeAndTail:
    def test_knee_minimizes_total(self):
        points = [make_eval(100.0, 1.0), make_eval(10.0, 20.0), make_eval(1.0, 500.0)]
        frontier = pareto_frontier(points)
        assert knee_point(frontier).total_tons == pytest.approx(30.0)

    def test_knee_of_empty_rejected(self):
        with pytest.raises(ValueError):
            knee_point([])

    def test_tail_ratio_quantifies_long_tail(self):
        points = [make_eval(100.0, 1.0), make_eval(10.0, 20.0), make_eval(1.0, 500.0)]
        frontier = pareto_frontier(points)
        assert frontier_tail_ratio(frontier) == pytest.approx(500.0 / 20.0)

    def test_tail_ratio_needs_two_points(self):
        with pytest.raises(ValueError):
            frontier_tail_ratio([make_eval(1.0, 1.0)])
