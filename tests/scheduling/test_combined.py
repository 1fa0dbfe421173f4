"""Tests for the battery-first combined heuristic (§5.2)."""

import numpy as np
import pytest

from repro.battery import BatterySpec
from repro.scheduling import simulate_combined
from repro.timeseries import DEFAULT_CALENDAR, HourlySeries

N = DEFAULT_CALENDAR.n_hours


@pytest.fixture()
def day_night_supply():
    profile = [0.0] * 8 + [28.0] * 8 + [0.0] * 8
    return HourlySeries.from_daily_profile(profile, DEFAULT_CALENDAR)


class TestDegenerateCases:
    def test_no_battery_no_flexibility_is_passthrough(self, flat_demand, day_night_supply):
        result = simulate_combined(
            flat_demand, day_night_supply, BatterySpec(0.0), capacity_mw=50.0, flexible_ratio=0.0
        )
        expected = (flat_demand - day_night_supply).positive_part()
        assert np.allclose(result.grid_import.values, expected.values)
        assert result.deferred_mwh == 0.0

    def test_no_flexibility_matches_battery_sim(self, flat_demand, day_night_supply):
        from repro.battery import simulate_battery

        spec = BatterySpec(60.0)
        combined = simulate_combined(
            flat_demand, day_night_supply, spec, capacity_mw=50.0, flexible_ratio=0.0
        )
        pure = simulate_battery(flat_demand, day_night_supply, spec)
        assert np.allclose(combined.grid_import.values, pure.grid_import.values)
        assert np.allclose(combined.charge_level.values, pure.charge_level.values)


class TestPriorities:
    def test_battery_discharges_before_deferring(self, flat_demand):
        """With a battery big enough for the night (and enough daily supply
        to refill it), nothing is ever deferred."""
        generous = HourlySeries.from_daily_profile(
            [0.0] * 8 + [40.0] * 8 + [0.0] * 8, DEFAULT_CALENDAR
        )
        result = simulate_combined(
            flat_demand,
            generous,
            BatterySpec(400.0),
            capacity_mw=50.0,
            flexible_ratio=1.0,
        )
        assert result.deferred_mwh < 1.0

    def test_deferral_kicks_in_when_battery_small(self, flat_demand, day_night_supply):
        result = simulate_combined(
            flat_demand,
            day_night_supply,
            BatterySpec(10.0),
            capacity_mw=50.0,
            flexible_ratio=0.5,
        )
        assert result.deferred_mwh > 0.0

    def test_deferred_work_runs_before_charging(self, flat_demand, day_night_supply):
        """On surplus hours, queued work executes; battery charges from the
        remainder.  Hence with flexibility the battery absorbs less."""
        with_flex = simulate_combined(
            flat_demand, day_night_supply, BatterySpec(50.0), 50.0, flexible_ratio=0.8
        )
        without_flex = simulate_combined(
            flat_demand, day_night_supply, BatterySpec(50.0), 50.0, flexible_ratio=0.0
        )
        assert with_flex.charged_mwh <= without_flex.charged_mwh + 1e-6

    def test_combination_beats_battery_alone(self, flat_demand, day_night_supply):
        """§5.2: the combination reduces residual grid import relative to a
        same-size battery without scheduling."""
        spec = BatterySpec(30.0)
        combined = simulate_combined(
            flat_demand, day_night_supply, spec, 50.0, flexible_ratio=0.5
        )
        battery_only = simulate_combined(
            flat_demand, day_night_supply, spec, 50.0, flexible_ratio=0.0
        )
        assert combined.grid_import.total() < battery_only.grid_import.total()


class TestConservationAndConstraints:
    def test_energy_conservation(self, flat_demand, day_night_supply):
        result = simulate_combined(
            flat_demand, day_night_supply, BatterySpec(20.0), 50.0, flexible_ratio=0.6
        )
        assert result.shifted_demand.total() + result.unserved_mwh == pytest.approx(
            flat_demand.total()
        )

    def test_capacity_respected(self, flat_demand, day_night_supply):
        capacity = 14.0
        result = simulate_combined(
            flat_demand, day_night_supply, BatterySpec(20.0), capacity, flexible_ratio=1.0
        )
        assert result.shifted_demand.max() <= capacity + 1e-9

    def test_charge_level_within_bounds(self, flat_demand, day_night_supply):
        spec = BatterySpec(40.0, depth_of_discharge=0.8)
        result = simulate_combined(
            flat_demand, day_night_supply, spec, 50.0, flexible_ratio=0.4
        )
        assert result.charge_level.min() >= spec.floor_mwh - 1e-9
        assert result.charge_level.max() <= spec.capacity_mwh + 1e-9

    def test_validation(self, flat_demand, day_night_supply):
        with pytest.raises(ValueError):
            simulate_combined(flat_demand, day_night_supply, BatterySpec(1.0), 5.0, 0.4)
        with pytest.raises(ValueError):
            simulate_combined(flat_demand, day_night_supply, BatterySpec(1.0), 50.0, 1.5)
        with pytest.raises(ValueError):
            simulate_combined(
                flat_demand, day_night_supply, BatterySpec(1.0), 50.0, 0.4, deadline_hours=0
            )

    def test_nan_capacity_rejected(self, flat_demand, day_night_supply):
        with pytest.raises(ValueError, match="capacity"):
            simulate_combined(
                flat_demand, day_night_supply, BatterySpec(1.0), float("nan"), 0.4
            )

    def test_unserved_small_for_sane_configs(self, flat_demand, day_night_supply):
        result = simulate_combined(
            flat_demand, day_night_supply, BatterySpec(20.0), 50.0, flexible_ratio=0.4
        )
        assert result.unserved_mwh < 0.01 * flat_demand.total()


class TestAccessors:
    def test_equivalent_full_cycles(self, flat_demand, day_night_supply):
        result = simulate_combined(
            flat_demand, day_night_supply, BatterySpec(30.0), 50.0, flexible_ratio=0.2
        )
        assert result.equivalent_full_cycles() == pytest.approx(
            result.discharged_mwh / 30.0
        )

    def test_zero_battery_has_zero_cycles(self, flat_demand, day_night_supply):
        result = simulate_combined(
            flat_demand, day_night_supply, BatterySpec(0.0), 50.0, flexible_ratio=0.2
        )
        assert result.equivalent_full_cycles() == 0.0

    def test_peak_power(self, flat_demand, day_night_supply):
        result = simulate_combined(
            flat_demand, day_night_supply, BatterySpec(10.0), 50.0, flexible_ratio=0.7
        )
        assert result.peak_power_mw() == result.shifted_demand.max()
