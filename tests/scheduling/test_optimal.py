"""Tests for the LP-optimal day scheduler and the greedy gap."""

import numpy as np
import pytest

from repro.scheduling import schedule_carbon_aware
from repro.scheduling.optimal import schedule_optimal
from repro.timeseries import DEFAULT_CALENDAR, HourlySeries

N = DEFAULT_CALENDAR.n_hours


@pytest.fixture()
def day_night_supply():
    return HourlySeries.from_daily_profile(
        [0.0] * 8 + [25.0] * 8 + [0.0] * 8, DEFAULT_CALENDAR
    )


@pytest.fixture()
def intensity(day_night_supply):
    values = np.where(day_night_supply.values > 0.0, 50.0, 600.0)
    return HourlySeries(values, DEFAULT_CALENDAR)


class TestOptimalSchedule:
    def test_energy_conserved(self, flat_demand, day_night_supply):
        result = schedule_optimal(flat_demand, day_night_supply, 50.0, 0.4)
        assert result.shifted_demand.total() == pytest.approx(
            flat_demand.total(), rel=1e-6
        )

    def test_capacity_respected(self, flat_demand, day_night_supply):
        result = schedule_optimal(flat_demand, day_night_supply, 13.0, 1.0)
        assert result.shifted_demand.max() <= 13.0 + 1e-6

    def test_never_worse_than_greedy(self, flat_demand, day_night_supply, intensity):
        greedy = schedule_carbon_aware(
            flat_demand, day_night_supply, intensity, 50.0, 0.4
        )
        optimal = schedule_optimal(flat_demand, day_night_supply, 50.0, 0.4)
        greedy_deficit = (
            (greedy.shifted_demand - day_night_supply).positive_part().total()
        )
        assert optimal.deficit_mwh(day_night_supply) <= greedy_deficit + 1e-6

    def test_zero_ratio_is_identity(self, flat_demand, day_night_supply):
        result = schedule_optimal(flat_demand, day_night_supply, 50.0, 0.0)
        assert np.allclose(result.shifted_demand.values, flat_demand.values)

    def test_flexibility_respected(self, flat_demand, day_night_supply):
        ratio = 0.25
        result = schedule_optimal(flat_demand, day_night_supply, 50.0, ratio)
        drop = flat_demand.values - result.shifted_demand.values
        assert np.all(drop <= ratio * flat_demand.values + 1e-6)

    def test_validation(self, flat_demand, day_night_supply):
        with pytest.raises(ValueError):
            schedule_optimal(flat_demand, day_night_supply, 5.0, 0.4)
        with pytest.raises(ValueError):
            schedule_optimal(flat_demand, day_night_supply, 50.0, 1.5)


def greedy_optimality_gap(demand, supply, intensity, capacity_mw, flexible_ratio):
    """Relative excess deficit of the greedy schedule over the LP optimum,
    computed as ``bench_greedy_vs_optimal.py`` reports it."""
    greedy = schedule_carbon_aware(demand, supply, intensity, capacity_mw, flexible_ratio)
    optimal = schedule_optimal(demand, supply, capacity_mw, flexible_ratio)
    greedy_deficit = (greedy.shifted_demand - supply).positive_part().total()
    optimal_deficit = optimal.deficit_mwh(supply)
    return greedy_deficit / optimal_deficit - 1.0 if optimal_deficit > 0 else 0.0


class TestGreedyGap:
    def test_gap_non_negative(self, flat_demand, day_night_supply, intensity):
        gap = greedy_optimality_gap(
            flat_demand, day_night_supply, intensity, 50.0, 0.4
        )
        assert gap >= -1e-9

    def test_greedy_near_optimal_on_clean_structure(
        self, flat_demand, day_night_supply, intensity
    ):
        """On a day/night supply with matching intensity ranking, greedy
        should be within a few percent of the LP."""
        gap = greedy_optimality_gap(
            flat_demand, day_night_supply, intensity, 50.0, 0.4
        )
        assert gap < 0.05

    def test_gap_on_noisy_supply_still_small(self, flat_demand):
        rng = np.random.default_rng(17)
        base = np.tile([0.0] * 8 + [25.0] * 8 + [0.0] * 8, DEFAULT_CALENDAR.n_days)
        supply = HourlySeries(base * rng.uniform(0.5, 1.5, N), DEFAULT_CALENDAR)
        intensity = HourlySeries(
            np.where(base > 0, 50.0, 600.0), DEFAULT_CALENDAR
        )
        gap = greedy_optimality_gap(flat_demand, supply, intensity, 50.0, 0.4)
        assert 0.0 <= gap < 0.25
