"""Tests for operational-carbon accounting and Fig. 6 scenarios."""

import numpy as np
import pytest

from repro.carbon import (
    SupplyScenario,
    effective_intensity,
    operational_carbon_tons,
    scenario_intensity,
)
from repro.timeseries import DEFAULT_CALENDAR, HourlySeries

N = DEFAULT_CALENDAR.n_hours


def annual_scenario_carbon(scenario, demand, supply, grid_intensity, residual_import=None):
    """Annual operational carbon under one Fig. 6 scenario, up to the tons factor."""
    blend = scenario_intensity(scenario, demand, supply, grid_intensity, residual_import)
    return float((demand.values * blend.values).sum())


@pytest.fixture()
def grid_intensity():
    return HourlySeries.constant(500.0, DEFAULT_CALENDAR)


class TestOperationalCarbon:
    def test_unit_conversion(self, grid_intensity):
        """1 MWh at 500 g/kWh = 0.5 tCO2; constant 1 MW for a year."""
        imports = HourlySeries.constant(1.0, DEFAULT_CALENDAR)
        tons = operational_carbon_tons(imports, grid_intensity)
        assert tons == pytest.approx(0.5 * N)

    def test_zero_import_zero_carbon(self, grid_intensity):
        zero = HourlySeries.zeros(DEFAULT_CALENDAR)
        assert operational_carbon_tons(zero, grid_intensity) == 0.0

    def test_negative_import_rejected(self, grid_intensity):
        bad = HourlySeries.constant(-1.0, DEFAULT_CALENDAR)
        with pytest.raises(ValueError):
            operational_carbon_tons(bad, grid_intensity)

    def test_calendar_mismatch_rejected(self, grid_intensity):
        from repro.timeseries import YearCalendar

        other = HourlySeries.constant(1.0, YearCalendar(2021))
        with pytest.raises(ValueError):
            operational_carbon_tons(other, grid_intensity)


class TestEffectiveIntensity:
    def test_full_import_equals_grid(self, flat_demand, grid_intensity):
        blend = effective_intensity(flat_demand, flat_demand, grid_intensity)
        assert np.allclose(blend.values, 500.0)

    def test_zero_import_is_carbon_free(self, flat_demand, grid_intensity):
        zero = HourlySeries.zeros(DEFAULT_CALENDAR)
        blend = effective_intensity(flat_demand, zero, grid_intensity)
        assert blend.total() == 0.0

    def test_half_import_halves_intensity(self, flat_demand, grid_intensity):
        half = flat_demand * 0.5
        blend = effective_intensity(flat_demand, half, grid_intensity)
        assert np.allclose(blend.values, 250.0)

    def test_import_above_demand_rejected(self, flat_demand, grid_intensity):
        toomuch = flat_demand * 1.5
        with pytest.raises(ValueError):
            effective_intensity(flat_demand, toomuch, grid_intensity)


class TestScenarios:
    def test_grid_mix_is_grid_intensity(self, flat_demand, grid_intensity):
        supply = HourlySeries.zeros(DEFAULT_CALENDAR)
        blend = scenario_intensity(
            SupplyScenario.GRID_MIX, flat_demand, supply, grid_intensity
        )
        assert np.allclose(blend.values, grid_intensity.values)

    def test_net_zero_cleaner_than_grid(self, flat_demand, grid_intensity):
        supply = HourlySeries.from_daily_profile(
            [0.0] * 8 + [30.0] * 8 + [0.0] * 8, DEFAULT_CALENDAR
        )
        net_zero = scenario_intensity(
            SupplyScenario.NET_ZERO, flat_demand, supply, grid_intensity
        )
        assert net_zero.mean() < grid_intensity.mean()
        # Covered hours are carbon-free, uncovered hours at full grid cost.
        assert net_zero.min() == 0.0
        assert net_zero.max() == pytest.approx(500.0)

    def test_247_requires_residual_trace(self, flat_demand, grid_intensity):
        supply = HourlySeries.zeros(DEFAULT_CALENDAR)
        with pytest.raises(ValueError):
            scenario_intensity(
                SupplyScenario.CARBON_FREE_247, flat_demand, supply, grid_intensity
            )

    def test_247_cleaner_than_net_zero(self, flat_demand, grid_intensity):
        supply = HourlySeries.from_daily_profile(
            [0.0] * 8 + [30.0] * 8 + [0.0] * 8, DEFAULT_CALENDAR
        )
        residual = (flat_demand - supply).positive_part() * 0.1  # battery covers 90%
        net_zero = annual_scenario_carbon(
            SupplyScenario.NET_ZERO, flat_demand, supply, grid_intensity
        )
        carbon_free = annual_scenario_carbon(
            SupplyScenario.CARBON_FREE_247,
            flat_demand,
            supply,
            grid_intensity,
            residual_import=residual,
        )
        assert carbon_free < net_zero

    def test_annual_scenario_ordering(self, flat_demand, grid_intensity):
        """Grid mix >= Net Zero >= 24/7 in annual operational carbon."""
        supply = HourlySeries.from_daily_profile(
            [0.0] * 8 + [30.0] * 8 + [0.0] * 8, DEFAULT_CALENDAR
        )
        residual = (flat_demand - supply).positive_part() * 0.05
        grid = annual_scenario_carbon(
            SupplyScenario.GRID_MIX, flat_demand, supply, grid_intensity
        )
        net_zero = annual_scenario_carbon(
            SupplyScenario.NET_ZERO, flat_demand, supply, grid_intensity
        )
        carbon_free = annual_scenario_carbon(
            SupplyScenario.CARBON_FREE_247,
            flat_demand,
            supply,
            grid_intensity,
            residual_import=residual,
        )
        assert grid >= net_zero >= carbon_free
