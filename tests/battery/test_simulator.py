"""Tests for the hourly greedy battery operation policy."""

import numpy as np
import pytest

from repro.battery import BatterySpec, capacity_for_full_coverage, simulate_battery
from repro.timeseries import DEFAULT_CALENDAR, HourlySeries

N = DEFAULT_CALENDAR.n_hours


def alternating_supply(low: float, high: float) -> HourlySeries:
    """Supply flipping between low (odd hours) and high (even hours)."""
    values = np.where(np.arange(N) % 2 == 0, high, low)
    return HourlySeries(values, DEFAULT_CALENDAR)


class TestZeroBattery:
    def test_degenerates_to_positive_part(self, flat_demand):
        supply = alternating_supply(5.0, 15.0)
        result = simulate_battery(flat_demand, supply, BatterySpec(0.0))
        expected = (flat_demand - supply).positive_part()
        assert np.allclose(result.grid_import.values, expected.values)

    def test_surplus_passthrough(self, flat_demand):
        supply = alternating_supply(5.0, 15.0)
        result = simulate_battery(flat_demand, supply, BatterySpec(0.0))
        expected = (supply - flat_demand).positive_part()
        assert np.allclose(result.surplus.values, expected.values)


class TestGreedyPolicy:
    def test_big_battery_rides_through_alternation(self, flat_demand):
        """A large battery should absorb the even-hour surplus and serve the
        odd-hour deficit almost entirely."""
        supply = alternating_supply(0.0, 21.0)  # avg 10.5 > demand 10
        result = simulate_battery(flat_demand, supply, BatterySpec(500.0))
        uncovered = result.grid_import.total()
        baseline = (flat_demand - supply).positive_part().total()
        assert uncovered < 0.05 * baseline

    def test_charge_level_within_bounds(self, flat_demand):
        supply = alternating_supply(0.0, 25.0)
        spec = BatterySpec(40.0, depth_of_discharge=0.8)
        result = simulate_battery(flat_demand, supply, spec)
        assert result.charge_level.min() >= spec.floor_mwh - 1e-9
        assert result.charge_level.max() <= spec.capacity_mwh + 1e-9

    def test_energy_conservation(self, flat_demand):
        """demand = supply_used + battery_delivered + grid_import, hourly."""
        supply = alternating_supply(2.0, 18.0)
        spec = BatterySpec(30.0)
        result = simulate_battery(flat_demand, supply, spec, initial_soc=0.0)
        supply_used = np.minimum(supply.values, flat_demand.values)
        deficit = flat_demand.values - supply_used
        delivered = deficit - result.grid_import.values
        assert np.all(delivered >= -1e-9)
        assert delivered.sum() == pytest.approx(result.discharged_mwh, rel=1e-6)

    def test_surplus_only_after_charging(self, flat_demand):
        """No hour may report surplus while the battery had headroom and
        C-rate budget left."""
        supply = alternating_supply(0.0, 22.0)
        spec = BatterySpec(100.0)
        result = simulate_battery(flat_demand, supply, spec, initial_soc=0.0)
        # Where surplus leaked, the battery must be (nearly) full or the
        # C-rate must have been the binding constraint.
        leaking = result.surplus.values > 1e-6
        gap = supply.values - flat_demand.values
        c_rate_bound = gap >= spec.max_charge_mw
        nearly_full = result.charge_level.values >= spec.capacity_mwh - 1e-6
        assert np.all(c_rate_bound[leaking] | nearly_full[leaking])

    def test_mismatched_calendars_rejected(self, flat_demand):
        from repro.timeseries import YearCalendar

        other = HourlySeries.constant(5.0, YearCalendar(2021))
        with pytest.raises(ValueError):
            simulate_battery(flat_demand, other, BatterySpec(10.0))

    def test_cycles_per_day_reasonable(self, flat_demand):
        supply = alternating_supply(0.0, 21.0)
        result = simulate_battery(flat_demand, supply, BatterySpec(20.0))
        # Alternating hourly surplus/deficit cycles the pack heavily but the
        # equivalent-full-cycle rate must stay below the hourly C-rate bound.
        assert 0.0 < result.cycles_per_day() < 24.0


class TestChargeHistogram:
    def test_u_shape_under_tight_capacity(self, flat_demand):
        """With day/night alternation and a small pack, charge levels pile at
        the extremes (the paper's Fig. 16 observation)."""
        day_night = HourlySeries.from_daily_profile(
            [0.0] * 12 + [25.0] * 12, DEFAULT_CALENDAR
        )
        result = simulate_battery(flat_demand, day_night, BatterySpec(30.0))
        hist = result.charge_level_histogram(n_bins=10)
        fractions = hist.fractions()
        assert fractions[0] + fractions[-1] > 0.5

    def test_zero_capacity_histogram_rejected(self, flat_demand):
        result = simulate_battery(flat_demand, flat_demand, BatterySpec(0.0))
        with pytest.raises(ValueError):
            result.charge_level_histogram()


class TestCapacityForFullCoverage:
    def test_zero_when_supply_always_sufficient(self, flat_demand):
        supply = HourlySeries.constant(12.0, DEFAULT_CALENDAR)
        assert capacity_for_full_coverage(flat_demand, supply) == 0.0

    def test_infinite_when_annual_energy_insufficient(self, flat_demand):
        supply = HourlySeries.constant(5.0, DEFAULT_CALENDAR)
        assert capacity_for_full_coverage(flat_demand, supply) == float("inf")

    def test_finds_finite_capacity_for_day_night(self, flat_demand):
        day_night = HourlySeries.from_daily_profile(
            [0.0] * 12 + [25.0] * 12, DEFAULT_CALENDAR
        )
        capacity = capacity_for_full_coverage(flat_demand, day_night)
        assert np.isfinite(capacity)
        # Serving 12 night hours of 10 MW needs >= ~120 MWh plus losses.
        assert 100.0 < capacity < 250.0
        # And the found capacity actually achieves zero import.
        result = simulate_battery(flat_demand, day_night, BatterySpec(capacity))
        assert result.grid_import.total() < 1.0

    def test_validation(self, flat_demand):
        with pytest.raises(ValueError):
            capacity_for_full_coverage(flat_demand, flat_demand, max_hours_of_load=0.0)
        with pytest.raises(ValueError):
            capacity_for_full_coverage(flat_demand, flat_demand, tolerance_mwh=0.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_bounds_rejected(self, flat_demand, value):
        with pytest.raises(ValueError, match="max_hours_of_load"):
            capacity_for_full_coverage(flat_demand, flat_demand, max_hours_of_load=value)
        with pytest.raises(ValueError, match="tolerance_mwh"):
            capacity_for_full_coverage(flat_demand, flat_demand, tolerance_mwh=value)
