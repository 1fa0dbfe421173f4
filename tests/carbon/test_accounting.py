"""Tests for REC accounting and matching granularities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.carbon import (
    annual_rec_balance,
    hourly_matching_score,
    matching_gap,
    monthly_matching,
)
from repro.core import renewable_coverage
from repro.timeseries import DEFAULT_CALENDAR, HourlySeries

N = DEFAULT_CALENDAR.n_hours


@pytest.fixture()
def day_night_supply():
    """Daytime-only supply whose annual total slightly exceeds demand."""
    return HourlySeries.from_daily_profile(
        [0.0] * 8 + [32.0] * 8 + [0.0] * 8, DEFAULT_CALENDAR
    )


class TestAnnualBalance:
    def test_net_zero_when_credits_cover(self, flat_demand, day_night_supply):
        balance = annual_rec_balance(flat_demand, day_night_supply)
        assert balance.matched_fraction == 1.0

    def test_shortfall(self, flat_demand):
        half = flat_demand * 0.5
        balance = annual_rec_balance(flat_demand, half)
        assert balance.matched_fraction == pytest.approx(0.5)

    def test_zero_consumption_rejected(self):
        zero = HourlySeries.zeros(DEFAULT_CALENDAR)
        balance = annual_rec_balance(zero, zero)
        with pytest.raises(ValueError):
            balance.matched_fraction


class TestMonthlyMatching:
    def test_twelve_months(self, flat_demand, day_night_supply):
        months = monthly_matching(flat_demand, day_night_supply)
        assert len(months) == 12
        assert [m.month for m in months] == list(range(1, 13))

    def test_totals_sum_to_annual(self, flat_demand, day_night_supply):
        months = monthly_matching(flat_demand, day_night_supply)
        assert sum(m.consumed_mwh for m in months) == pytest.approx(flat_demand.total())
        assert sum(m.generated_mwh for m in months) == pytest.approx(
            day_night_supply.total()
        )

    def test_month_names(self, flat_demand, day_night_supply):
        months = monthly_matching(flat_demand, day_night_supply)
        assert months[0].name == "Jan"
        assert months[11].name == "Dec"


class TestHourlyScore:
    def test_equals_coverage_metric(self, flat_demand, day_night_supply):
        """The 24/7 CFE score and the paper's coverage metric coincide."""
        assert hourly_matching_score(flat_demand, day_night_supply) == pytest.approx(
            renewable_coverage(flat_demand, day_night_supply)
        )

    def test_perfect_match(self, flat_demand):
        assert hourly_matching_score(flat_demand, flat_demand) == pytest.approx(1.0)


class TestMatchingGap:
    def test_granularity_ordering(self, flat_demand, day_night_supply):
        """Finer matching can only look worse: hourly <= monthly <= annual."""
        gap = matching_gap(flat_demand, day_night_supply)
        assert gap.hourly_fraction <= gap.monthly_fraction + 1e-12
        assert gap.monthly_fraction <= gap.annual_fraction + 1e-12

    def test_net_zero_overstatement_positive_for_day_only_supply(
        self, flat_demand, day_night_supply
    ):
        """The paper's headline: Net Zero (annual) overstates hourly truth."""
        gap = matching_gap(flat_demand, day_night_supply)
        assert gap.annual_fraction == 1.0
        assert gap.hourly_fraction < 0.75
        assert gap.net_zero_overstatement > 0.25

    def test_no_gap_for_flat_supply(self, flat_demand):
        gap = matching_gap(flat_demand, flat_demand)
        assert gap.net_zero_overstatement == pytest.approx(0.0)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_ordering_invariant_random_traces(self, seed):
        rng = np.random.default_rng(seed)
        demand = HourlySeries(rng.uniform(1.0, 20.0, N), DEFAULT_CALENDAR)
        supply = HourlySeries(rng.uniform(0.0, 30.0, N), DEFAULT_CALENDAR)
        gap = matching_gap(demand, supply)
        assert 0.0 <= gap.hourly_fraction <= gap.monthly_fraction + 1e-12
        assert gap.monthly_fraction <= gap.annual_fraction + 1e-12 <= 1.0 + 1e-12


class TestValidation:
    def test_calendar_mismatch(self, flat_demand):
        from repro.timeseries import YearCalendar

        other = HourlySeries.constant(5.0, YearCalendar(2021))
        with pytest.raises(ValueError):
            annual_rec_balance(flat_demand, other)

    def test_negative_rejected(self, flat_demand):
        bad = HourlySeries.constant(-1.0, DEFAULT_CALENDAR)
        with pytest.raises(ValueError):
            hourly_matching_score(flat_demand, bad)
