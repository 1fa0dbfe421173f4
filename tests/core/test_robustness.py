"""Tests for multi-weather-year robustness evaluation."""

import pytest

from repro.core import DesignPoint, Strategy
from repro.core.robustness import evaluate_across_years
from repro.grid import RenewableInvestment


@pytest.fixture(scope="module")
def report():
    design = DesignPoint(
        investment=RenewableInvestment(solar_mw=76.0, wind_mw=76.0),
        battery_mwh=95.0,
    )
    return evaluate_across_years(
        "UT", design, Strategy.RENEWABLES_BATTERY, seeds=(0, 1, 2, 3)
    )


class TestReport:
    def test_one_evaluation_per_seed(self, report):
        assert report.n_years == 4

    def test_weather_actually_varies(self, report):
        """Different seeds must produce different outcomes."""
        totals = {round(e.total_tons, 6) for e in report.evaluations}
        assert len(totals) > 1

    def test_worst_not_better_than_mean(self, report):
        assert report.worst_coverage() <= report.mean_coverage()
        assert report.worst_total_tons() >= report.mean_total_tons()

    def test_spread_non_negative_and_bounded(self, report):
        assert 0.0 <= report.total_relative_spread() < 1.0

    def test_design_held_fixed(self, report):
        for evaluation in report.evaluations:
            assert evaluation.design == report.design.constrained_to(report.strategy)

    def test_deterministic(self, report):
        again = evaluate_across_years(
            "UT", report.design, Strategy.RENEWABLES_BATTERY, seeds=(0, 1, 2, 3)
        )
        assert [e.total_tons for e in again.evaluations] == [
            e.total_tons for e in report.evaluations
        ]


class TestValidation:
    def test_empty_seeds_rejected(self):
        design = DesignPoint(investment=RenewableInvestment(solar_mw=10.0))
        with pytest.raises(ValueError):
            evaluate_across_years("UT", design, Strategy.RENEWABLES_ONLY, seeds=())

    def test_duplicate_seeds_rejected(self):
        design = DesignPoint(investment=RenewableInvestment(solar_mw=10.0))
        with pytest.raises(ValueError):
            evaluate_across_years(
                "UT", design, Strategy.RENEWABLES_ONLY, seeds=(1, 1)
            )
