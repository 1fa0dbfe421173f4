"""Tests for the CarbonExplorer facade."""

import numpy as np
import pytest

from repro import CarbonExplorer, Strategy
from repro.battery import BatterySpec
from repro.carbon import SupplyScenario
from repro.grid import RenewableInvestment


@pytest.fixture(scope="module")
def explorer():
    return CarbonExplorer("UT")


class TestBasics:
    def test_site_binding(self, explorer):
        assert explorer.state == "UT"
        assert explorer.avg_power_mw == pytest.approx(19.0, rel=0.02)

    def test_existing_investment_is_regional(self, explorer):
        inv = explorer.existing_investment()
        assert inv.solar_mw == 694
        assert inv.wind_mw == 239

    def test_unknown_site_rejected(self):
        with pytest.raises(KeyError):
            CarbonExplorer("ZZ")


class TestCoverageApis:
    def test_coverage_monotone_in_investment(self, explorer):
        small = explorer.coverage(RenewableInvestment(solar_mw=50.0))
        large = explorer.coverage(RenewableInvestment(solar_mw=500.0))
        assert 0.0 < small < large <= 1.0

    def test_coverage_of_existing_investment(self, explorer):
        existing = explorer.coverage_of_existing_investment()
        assert existing == explorer.coverage(explorer.existing_investment())
        assert 0.0 < existing < 1.0

    def test_coverage_surface_shape(self, explorer):
        surface = explorer.coverage_surface([0.0, 100.0], [0.0, 100.0, 200.0])
        assert len(surface) == 6
        zero_point = surface[0]
        assert zero_point == (0.0, 0.0, 0.0)

    def test_average_day_fallacy_is_optimistic(self, explorer):
        """Fig. 8: averaged supply data overstates coverage."""
        inv = RenewableInvestment(solar_mw=100.0, wind_mw=100.0)
        assert explorer.coverage_with_average_day_supply(inv) > explorer.coverage(inv)


class TestBatteryApis:
    def test_hours_consistent_with_mwh(self, explorer):
        inv = explorer.existing_investment()
        mwh = explorer.battery_mwh_for_full_coverage(inv)
        hours = explorer.battery_hours_for_full_coverage(inv)
        assert hours == pytest.approx(mwh / explorer.avg_power_mw)

    def test_simulate_battery(self, explorer):
        result = explorer.simulate_battery(
            explorer.existing_investment(), BatterySpec(50.0)
        )
        assert result.grid_import.min() >= 0.0


class TestSchedulingApis:
    def test_schedule(self, explorer):
        result = explorer.schedule(
            explorer.existing_investment(),
            capacity_mw=explorer.demand_power.max() * 1.2,
            flexible_ratio=0.4,
        )
        assert result.moved_mwh > 0.0

    def test_combined(self, explorer):
        result = explorer.simulate_combined(
            explorer.existing_investment(),
            BatterySpec(50.0),
            capacity_mw=explorer.demand_power.max() * 1.2,
            flexible_ratio=0.4,
        )
        assert result.grid_import.total() >= 0.0


class TestScenarioApi:
    def test_grid_mix_dirtier_than_net_zero(self, explorer):
        grid = explorer.scenario_intensity(SupplyScenario.GRID_MIX)
        net_zero = explorer.scenario_intensity(SupplyScenario.NET_ZERO)
        assert net_zero.mean() < grid.mean()

    def test_247_near_zero_with_zero_residual(self, explorer):
        from repro.timeseries import HourlySeries

        zero = HourlySeries.zeros(explorer.demand_power.calendar)
        blend = explorer.scenario_intensity(
            SupplyScenario.CARBON_FREE_247, residual_import=zero
        )
        assert blend.total() == 0.0


class TestOptimizationApis:
    def test_optimize_with_tiny_space(self, explorer):
        space = explorer.default_space(
            n_renewable_steps=2,
            battery_hours=(0.0, 5.0),
            extra_capacity_fractions=(0.0,),
        )
        result = explorer.optimize(Strategy.RENEWABLES_BATTERY, space)
        assert result.n_evaluated == space.size(Strategy.RENEWABLES_BATTERY)

    def test_pareto_frontier_nonempty(self, explorer):
        space = explorer.default_space(
            n_renewable_steps=3,
            battery_hours=(0.0, 5.0),
            extra_capacity_fractions=(0.0,),
        )
        frontier = explorer.pareto(Strategy.RENEWABLES_BATTERY, space)
        assert len(frontier) >= 1
        embodied = [e.embodied_tons for e in frontier]
        assert embodied == sorted(embodied)
