"""Tests for dual-use (resilience + carbon) battery operation."""

import pytest

from repro.battery import LFP
from repro.battery.dual_use import (
    dual_use_spec,
    reserve_for_ride_through,
    simulate_dual_use,
)
from repro.timeseries import DEFAULT_CALENDAR, HourlySeries


@pytest.fixture()
def day_night_supply():
    return HourlySeries.from_daily_profile(
        [0.0] * 12 + [25.0] * 12, DEFAULT_CALENDAR
    )


class TestDualUseSpec:
    def test_reserve_becomes_floor(self):
        spec = dual_use_spec(100.0, 30.0)
        assert spec.floor_mwh == pytest.approx(30.0)
        assert spec.usable_mwh == pytest.approx(70.0)

    def test_zero_reserve_is_full_dod(self):
        assert dual_use_spec(100.0, 0.0).depth_of_discharge == 1.0

    def test_reserve_must_fit(self):
        with pytest.raises(ValueError):
            dual_use_spec(100.0, 100.0)
        with pytest.raises(ValueError):
            dual_use_spec(100.0, 150.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            dual_use_spec(0.0, 0.0)
        with pytest.raises(ValueError):
            dual_use_spec(100.0, -1.0)


class TestReserveSizing:
    def test_sized_for_peak_with_efficiency_margin(self, flat_demand):
        reserve = reserve_for_ride_through(flat_demand, 4.0)
        assert reserve == pytest.approx(10.0 * 4.0 / LFP.discharge_efficiency)

    def test_zero_hours_zero_reserve(self, flat_demand):
        assert reserve_for_ride_through(flat_demand, 0.0) == 0.0

    def test_negative_hours_rejected(self, flat_demand):
        with pytest.raises(ValueError):
            reserve_for_ride_through(flat_demand, -1.0)


class TestSimulateDualUse:
    def test_reserve_always_held(self, flat_demand, day_night_supply):
        outcome = simulate_dual_use(
            flat_demand, day_night_supply, capacity_mwh=200.0, ride_through_hours=4.0
        )
        assert outcome.result.charge_level.min() >= outcome.reserve_mwh - 1e-9

    def test_reserve_costs_carbon_benefit(self, flat_demand, day_night_supply):
        """More reserve -> less cyclable energy -> more grid import."""
        imports = []
        for hours in (0.0, 4.0, 12.0):
            outcome = simulate_dual_use(
                flat_demand, day_night_supply, capacity_mwh=200.0,
                ride_through_hours=hours,
            )
            imports.append(outcome.grid_import_mwh)
        assert imports[0] <= imports[1] <= imports[2]
        assert imports[2] > imports[0]  # a 12h reserve visibly hurts

    def test_dedicated_pack_equivalence(self, flat_demand, day_night_supply):
        """A dual-use pack of capacity C with reserve R imports no more than
        a dedicated carbon pack of capacity C - R (the shared pack also
        enjoys the full pack's C-rate)."""
        from repro.battery import BatterySpec, simulate_battery

        outcome = simulate_dual_use(
            flat_demand, day_night_supply, capacity_mwh=200.0, ride_through_hours=4.0
        )
        dedicated = simulate_battery(
            flat_demand,
            day_night_supply,
            BatterySpec(200.0 - outcome.reserve_mwh),
        )
        assert outcome.grid_import_mwh <= dedicated.grid_import.total() + 1e-6
