"""Tests for multi-year horizon planning."""

import pytest

from repro.battery import BatterySpec
from repro.carbon import DEFAULT_EMBODIED_MODEL
from repro.carbon.horizon import horizon_from_evaluation, horizon_totals


class TestHorizonTotals:
    def test_operational_scales_with_horizon(self):
        plan = horizon_totals(
            annual_operational_tons=100.0,
            annual_renewables_embodied_tons=10.0,
            battery=BatterySpec(0.0),
            battery_cycles_per_day=0.0,
            n_extra_servers=0,
            embodied=DEFAULT_EMBODIED_MODEL,
            horizon_years=15.0,
        )
        assert plan.operational_tons == pytest.approx(1500.0)
        assert plan.renewables_tons == pytest.approx(150.0)
        assert plan.battery_purchases == 0
        assert plan.server_refreshes == 0

    def test_battery_replacements_counted(self):
        plan = horizon_totals(
            annual_operational_tons=0.0,
            annual_renewables_embodied_tons=0.0,
            battery=BatterySpec(10.0),
            battery_cycles_per_day=1.0,  # ~6.3-year service life (cycle
            n_extra_servers=0,           # aging plus calendar drag)
            embodied=DEFAULT_EMBODIED_MODEL,
            horizon_years=15.0,
        )
        assert plan.battery_purchases == 3
        assert plan.battery_tons == pytest.approx(
            3 * DEFAULT_EMBODIED_MODEL.battery_total_tons(BatterySpec(10.0))
        )

    def test_server_refresh_cadence(self):
        plan = horizon_totals(
            annual_operational_tons=0.0,
            annual_renewables_embodied_tons=0.0,
            battery=BatterySpec(0.0),
            battery_cycles_per_day=0.0,
            n_extra_servers=100,
            embodied=DEFAULT_EMBODIED_MODEL,
            horizon_years=15.0,
        )
        assert plan.server_refreshes == 3  # 15 / 5-year lifetime

    def test_partial_final_interval_buys_whole_asset(self):
        """16 years with a 5-year server life needs 4 purchases."""
        plan = horizon_totals(
            0.0, 0.0, BatterySpec(0.0), 0.0, 10, DEFAULT_EMBODIED_MODEL, 16.0
        )
        assert plan.server_refreshes == 4

    def test_gentle_duty_fewer_battery_buys(self):
        def purchases(cycles_per_day):
            return horizon_totals(
                0.0, 0.0, BatterySpec(10.0), cycles_per_day, 0,
                DEFAULT_EMBODIED_MODEL, 20.0,
            ).battery_purchases

        assert purchases(0.2) <= purchases(2.0)

    def test_totals_compose(self):
        plan = horizon_totals(
            50.0, 5.0, BatterySpec(10.0), 1.0, 100, DEFAULT_EMBODIED_MODEL, 15.0
        )
        assert plan.total_tons == pytest.approx(
            plan.operational_tons + plan.embodied_tons
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            horizon_totals(1.0, 1.0, BatterySpec(0.0), 0.0, 0, DEFAULT_EMBODIED_MODEL, 0.0)
        with pytest.raises(ValueError):
            horizon_totals(-1.0, 1.0, BatterySpec(0.0), 0.0, 0, DEFAULT_EMBODIED_MODEL)
        with pytest.raises(ValueError):
            horizon_totals(1.0, 1.0, BatterySpec(0.0), 0.0, -1, DEFAULT_EMBODIED_MODEL)


class TestFromEvaluation:
    def test_end_to_end(self):
        from repro.core import DesignPoint, Strategy, build_site_context, evaluate_design
        from repro.grid import RenewableInvestment

        context = build_site_context("UT")
        avg = context.demand.avg_power_mw
        design = DesignPoint(
            investment=RenewableInvestment(solar_mw=4 * avg, wind_mw=4 * avg),
            battery_mwh=5 * avg,
        )
        evaluation = evaluate_design(context, design, Strategy.RENEWABLES_BATTERY)
        plan = horizon_from_evaluation(
            evaluation, context.demand.fleet.n_servers, context.embodied, 15.0
        )
        assert plan.operational_tons == pytest.approx(15 * evaluation.operational_tons)
        assert plan.battery_purchases >= 1
        assert plan.total_tons > 0.0

    def test_invalid_fleet_size_rejected(self):
        from repro.core import DesignPoint, Strategy, build_site_context, evaluate_design
        from repro.grid import RenewableInvestment

        context = build_site_context("UT")
        evaluation = evaluate_design(
            context,
            DesignPoint(investment=RenewableInvestment()),
            Strategy.RENEWABLES_ONLY,
        )
        with pytest.raises(ValueError):
            horizon_from_evaluation(evaluation, 0, context.embodied)
