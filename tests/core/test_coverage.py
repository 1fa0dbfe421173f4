"""Tests for the renewable-coverage metric (§4.1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    coverage_from_grid_import,
    coverage_percent,
    hourly_coverage_fraction,
    renewable_coverage,
)
from repro.timeseries import DEFAULT_CALENDAR, HourlySeries

N = DEFAULT_CALENDAR.n_hours


class TestRenewableCoverage:
    def test_zero_supply_zero_coverage(self, flat_demand):
        zero = HourlySeries.zeros(DEFAULT_CALENDAR)
        assert renewable_coverage(flat_demand, zero) == 0.0

    def test_exact_supply_full_coverage(self, flat_demand):
        assert renewable_coverage(flat_demand, flat_demand) == pytest.approx(1.0)

    def test_oversupply_does_not_exceed_one(self, flat_demand):
        double = flat_demand * 2.0
        assert renewable_coverage(flat_demand, double) == pytest.approx(1.0)

    def test_surplus_cannot_offset_shortfall(self, flat_demand):
        """Energy-weighted coverage uses the positive part: a huge surplus in
        one hour must not pay for another hour's deficit."""
        values = np.full(N, 10.0)
        values[0] = 0.0        # one dead hour
        values[1] = 1000.0     # huge surplus elsewhere
        supply = HourlySeries(values, DEFAULT_CALENDAR)
        expected = 1.0 - 10.0 / flat_demand.total()
        assert renewable_coverage(flat_demand, supply) == pytest.approx(expected)

    def test_half_supply_half_coverage(self, flat_demand):
        half = flat_demand * 0.5
        assert renewable_coverage(flat_demand, half) == pytest.approx(0.5)

    def test_zero_demand_rejected(self):
        zero = HourlySeries.zeros(DEFAULT_CALENDAR)
        with pytest.raises(ValueError):
            renewable_coverage(zero, zero)

    def test_negative_inputs_rejected(self, flat_demand):
        bad = HourlySeries.constant(-1.0, DEFAULT_CALENDAR)
        with pytest.raises(ValueError):
            renewable_coverage(flat_demand, bad)

    @given(st.floats(min_value=0.0, max_value=3.0))
    @settings(max_examples=30, deadline=None)
    def test_monotone_in_supply_scale(self, scale):
        demand = HourlySeries.constant(10.0, DEFAULT_CALENDAR)
        base = HourlySeries.constant(5.0, DEFAULT_CALENDAR)
        low = renewable_coverage(demand, base * scale)
        high = renewable_coverage(demand, base * (scale + 0.5))
        assert high >= low - 1e-12
        assert 0.0 <= low <= 1.0


class TestCoverageFromGridImport:
    def test_matches_direct_formula_without_battery(self, flat_demand):
        supply = HourlySeries.from_daily_profile(
            [0.0] * 12 + [25.0] * 12, DEFAULT_CALENDAR
        )
        grid_import = (flat_demand - supply).positive_part()
        assert coverage_from_grid_import(flat_demand, grid_import) == pytest.approx(
            renewable_coverage(flat_demand, supply)
        )

    def test_zero_import_is_full_coverage(self, flat_demand):
        zero = HourlySeries.zeros(DEFAULT_CALENDAR)
        assert coverage_from_grid_import(flat_demand, zero) == 1.0

    def test_import_above_demand_rejected(self, flat_demand):
        toomuch = flat_demand * 2.0
        with pytest.raises(ValueError):
            coverage_from_grid_import(flat_demand, toomuch)


class TestHourlyCoverage:
    def test_stricter_than_energy_weighted(self, flat_demand):
        """A 1% shortfall in every hour zeroes hour-coverage but barely dents
        energy coverage."""
        supply = flat_demand * 0.99
        assert hourly_coverage_fraction(flat_demand, supply) == 0.0
        assert renewable_coverage(flat_demand, supply) == pytest.approx(0.99)

    def test_full_when_supply_meets_demand(self, flat_demand):
        assert hourly_coverage_fraction(flat_demand, flat_demand) == 1.0

    def test_half_the_hours(self, flat_demand):
        values = np.where(np.arange(N) % 2 == 0, 20.0, 0.0)
        supply = HourlySeries(values, DEFAULT_CALENDAR)
        assert hourly_coverage_fraction(flat_demand, supply) == pytest.approx(0.5)


class TestHelpers:
    def test_coverage_percent(self):
        assert coverage_percent(0.515) == pytest.approx(51.5)

    def test_coverage_percent_validation(self):
        with pytest.raises(ValueError):
            coverage_percent(1.2)
