"""Tests for the peak-shaving battery policy."""

import pytest

from repro.battery import BatterySpec
from repro.battery.peak_shaving import (
    minimum_shavable_threshold,
    simulate_peak_shaving,
)
from repro.timeseries import DEFAULT_CALENDAR, HourlySeries

N = DEFAULT_CALENDAR.n_hours


@pytest.fixture()
def peaky_demand():
    """10 MW base with a 20 MW evening peak."""
    profile = [10.0] * 18 + [20.0] * 4 + [10.0] * 2
    return HourlySeries.from_daily_profile(profile, DEFAULT_CALENDAR)


@pytest.fixture()
def no_supply():
    return HourlySeries.zeros(DEFAULT_CALENDAR)


class TestShaving:
    def test_cap_holds_with_big_battery(self, peaky_demand, no_supply):
        result = simulate_peak_shaving(
            peaky_demand, no_supply, BatterySpec(200.0), threshold_mw=12.0
        )
        assert result.shaved_successfully()
        assert result.grid_import.max() <= 12.0 + 1e-9

    def test_small_battery_leaks_peak(self, peaky_demand, no_supply):
        result = simulate_peak_shaving(
            peaky_demand, no_supply, BatterySpec(5.0), threshold_mw=12.0
        )
        assert not result.shaved_successfully()
        assert result.grid_import.max() > 12.0

    def test_no_battery_is_passthrough_of_net_demand(self, peaky_demand, no_supply):
        result = simulate_peak_shaving(
            peaky_demand, no_supply, BatterySpec(0.0), threshold_mw=12.0
        )
        assert result.grid_import.max() == pytest.approx(20.0)
        assert result.unshaved_mwh > 0.0

    def test_renewables_reduce_net_peak(self, peaky_demand):
        supply = HourlySeries.constant(8.0, DEFAULT_CALENDAR)
        result = simulate_peak_shaving(
            peaky_demand, supply, BatterySpec(0.0), threshold_mw=12.0
        )
        assert result.grid_import.max() == pytest.approx(12.0)

    def test_recharge_respects_threshold(self, peaky_demand, no_supply):
        """Grid draw during recharge hours must never exceed the cap."""
        result = simulate_peak_shaving(
            peaky_demand, no_supply, BatterySpec(100.0), threshold_mw=12.0
        )
        assert result.grid_import.max() <= 12.0 + 1e-9

    def test_battery_cycles_daily(self, peaky_demand, no_supply):
        result = simulate_peak_shaving(
            peaky_demand, no_supply, BatterySpec(100.0), threshold_mw=12.0
        )
        # 8 MW x 4 h of daily peak = 32 MWh/day discharged.
        expected = 32.0 * DEFAULT_CALENDAR.n_days
        assert result.discharged_mwh == pytest.approx(expected, rel=0.05)

    def test_validation(self, peaky_demand, no_supply):
        with pytest.raises(ValueError):
            simulate_peak_shaving(peaky_demand, no_supply, BatterySpec(1.0), 0.0)
        with pytest.raises(ValueError):
            simulate_peak_shaving(
                peaky_demand, no_supply, BatterySpec(1.0), 12.0, recharge_rate_fraction=0.0
            )


class TestMinimumThreshold:
    def test_found_threshold_holds(self, peaky_demand, no_supply):
        spec = BatterySpec(60.0)
        threshold = minimum_shavable_threshold(peaky_demand, no_supply, spec)
        result = simulate_peak_shaving(peaky_demand, no_supply, spec, threshold)
        assert result.shaved_successfully()
        assert threshold < 20.0  # better than no shaving at all

    def test_bigger_battery_lower_threshold(self, peaky_demand, no_supply):
        small = minimum_shavable_threshold(peaky_demand, no_supply, BatterySpec(30.0))
        large = minimum_shavable_threshold(peaky_demand, no_supply, BatterySpec(120.0))
        assert large <= small

    def test_nothing_to_shave_rejected(self, no_supply):
        demand = HourlySeries.zeros(DEFAULT_CALENDAR)
        with pytest.raises(ValueError):
            minimum_shavable_threshold(demand, no_supply, BatterySpec(10.0))
