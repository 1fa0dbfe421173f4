"""Tests for design points, strategies, and design-space grids."""

import math

import pytest

from repro.core import (
    DesignPoint,
    DesignSpace,
    DesignSpaceError,
    Strategy,
    default_design_space,
)
from repro.grid import RenewableInvestment


class TestStrategy:
    def test_four_strategies(self):
        assert len(Strategy) == 4

    def test_battery_flags(self):
        assert Strategy.RENEWABLES_BATTERY.uses_battery
        assert Strategy.RENEWABLES_BATTERY_CAS.uses_battery
        assert not Strategy.RENEWABLES_ONLY.uses_battery
        assert not Strategy.RENEWABLES_CAS.uses_battery

    def test_scheduling_flags(self):
        assert Strategy.RENEWABLES_CAS.uses_scheduling
        assert Strategy.RENEWABLES_BATTERY_CAS.uses_scheduling
        assert not Strategy.RENEWABLES_ONLY.uses_scheduling
        assert not Strategy.RENEWABLES_BATTERY.uses_scheduling


class TestDesignPoint:
    def test_defaults(self):
        point = DesignPoint(investment=RenewableInvestment(100, 50))
        assert point.battery_mwh == 0.0
        assert point.flexible_ratio == 0.40  # the paper's §5.2 default

    def test_validation(self):
        inv = RenewableInvestment(10, 10)
        with pytest.raises(ValueError):
            DesignPoint(investment=inv, battery_mwh=-1)
        with pytest.raises(ValueError):
            DesignPoint(investment=inv, depth_of_discharge=0.0)
        with pytest.raises(ValueError):
            DesignPoint(investment=inv, extra_capacity_fraction=-0.1)
        with pytest.raises(ValueError):
            DesignPoint(investment=inv, flexible_ratio=1.1)

    def test_battery_spec(self):
        point = DesignPoint(
            investment=RenewableInvestment(), battery_mwh=50.0, depth_of_discharge=0.8
        )
        spec = point.battery_spec()
        assert spec.capacity_mwh == 50.0
        assert spec.depth_of_discharge == 0.8

    def test_constrained_to_renewables_only(self):
        point = DesignPoint(
            investment=RenewableInvestment(100, 0),
            battery_mwh=50.0,
            extra_capacity_fraction=0.5,
            flexible_ratio=0.4,
        )
        constrained = point.constrained_to(Strategy.RENEWABLES_ONLY)
        assert constrained.battery_mwh == 0.0
        assert constrained.extra_capacity_fraction == 0.0
        assert constrained.flexible_ratio == 0.0
        assert constrained.investment == point.investment

    def test_constrained_keeps_allowed_dimensions(self):
        point = DesignPoint(
            investment=RenewableInvestment(100, 0),
            battery_mwh=50.0,
            extra_capacity_fraction=0.5,
        )
        constrained = point.constrained_to(Strategy.RENEWABLES_BATTERY_CAS)
        assert constrained == point

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_constrained_returns_self_when_nothing_changes(self, strategy):
        point = DesignPoint(
            investment=RenewableInvestment(100, 0),
            battery_mwh=50.0 if strategy.uses_battery else 0.0,
            extra_capacity_fraction=0.5 if strategy.uses_scheduling else 0.0,
            flexible_ratio=0.4 if strategy.uses_scheduling else 0.0,
        )
        assert point.constrained_to(strategy) is point

    @pytest.mark.parametrize(
        "field", ["battery_mwh", "extra_capacity_fraction", "flexible_ratio"]
    )
    @pytest.mark.parametrize("zero", [-0.0, 0])
    def test_constrained_normalises_other_zeros(self, field, zero):
        # Digests hash repr(field): -0.0 and int 0 must become +0.0.
        fields = dict(battery_mwh=0.0, extra_capacity_fraction=0.0, flexible_ratio=0.0)
        fields[field] = zero
        point = DesignPoint(investment=RenewableInvestment(100, 0), **fields)
        constrained = point.constrained_to(Strategy.RENEWABLES_ONLY)
        assert constrained is not point
        assert repr(getattr(constrained, field)) == "0.0"
        assert repr(constrained) == repr(
            DesignPoint(investment=RenewableInvestment(100, 0))
            .constrained_to(Strategy.RENEWABLES_ONLY)
        )

    def test_constrained_keeps_negative_zero_in_allowed_dimension(self):
        point = DesignPoint(
            investment=RenewableInvestment(100, 0), battery_mwh=-0.0, flexible_ratio=0.0
        )
        assert point.constrained_to(Strategy.RENEWABLES_BATTERY) is point

    def test_describe(self):
        point = DesignPoint(investment=RenewableInvestment(100, 50), battery_mwh=20)
        text = point.describe()
        assert "solar=100MW" in text
        assert "wind=50MW" in text
        assert "battery=20MWh" in text


class TestDesignSpace:
    def space(self):
        return DesignSpace(
            solar_mw=(0.0, 100.0),
            wind_mw=(0.0, 50.0),
            battery_mwh=(0.0, 10.0, 20.0),
            extra_capacity_fractions=(0.0, 0.5),
        )

    def test_size_per_strategy(self):
        space = self.space()
        assert space.size(Strategy.RENEWABLES_ONLY) == 4
        assert space.size(Strategy.RENEWABLES_BATTERY) == 12
        assert space.size(Strategy.RENEWABLES_CAS) == 8
        assert space.size(Strategy.RENEWABLES_BATTERY_CAS) == 24

    def test_points_count_matches_size(self):
        space = self.space()
        for strategy in Strategy:
            assert len(list(space.points(strategy))) == space.size(strategy)

    def test_points_respect_constraints(self):
        space = self.space()
        for point in space.points(Strategy.RENEWABLES_ONLY):
            assert point.battery_mwh == 0.0
            assert point.extra_capacity_fraction == 0.0
            assert point.flexible_ratio == 0.0

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError):
            DesignSpace(solar_mw=(), wind_mw=(0.0,))

    def test_unsorted_axis_rejected(self):
        with pytest.raises(ValueError):
            DesignSpace(solar_mw=(10.0, 0.0), wind_mw=(0.0,))

    def test_negative_axis_rejected(self):
        with pytest.raises(ValueError):
            DesignSpace(solar_mw=(-1.0, 0.0), wind_mw=(0.0,))

    def test_axis_errors_are_typed(self):
        with pytest.raises(DesignSpaceError):
            DesignSpace(solar_mw=(), wind_mw=(0.0,))

    def test_design_space_error_is_a_value_error(self):
        assert issubclass(DesignSpaceError, ValueError)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_axis_value_rejected(self, bad):
        with pytest.raises(DesignSpaceError, match="finite"):
            DesignSpace(solar_mw=(0.0, bad), wind_mw=(0.0,))

    def test_nan_in_battery_axis_rejected(self):
        with pytest.raises(DesignSpaceError):
            DesignSpace(
                solar_mw=(0.0,), wind_mw=(0.0,), battery_mwh=(0.0, math.nan)
            )

    def test_duplicate_axis_value_rejected(self):
        with pytest.raises(DesignSpaceError):
            DesignSpace(solar_mw=(0.0, 10.0, 10.0), wind_mw=(0.0,))

    def test_nan_depth_of_discharge_rejected(self):
        with pytest.raises(DesignSpaceError):
            DesignSpace(
                solar_mw=(0.0,), wind_mw=(0.0,), depth_of_discharge=math.nan
            )

    def test_out_of_range_flexible_ratio_rejected(self):
        with pytest.raises(DesignSpaceError):
            DesignSpace(solar_mw=(0.0,), wind_mw=(0.0,), flexible_ratio=1.5)


class TestDefaultDesignSpace:
    def test_axes_scale_with_power(self):
        space = default_design_space(20.0, supports_solar=True, supports_wind=True)
        assert space.solar_mw[0] == 0.0
        assert space.solar_mw[-1] == pytest.approx(20.0 * 8.0)
        assert space.battery_mwh[-1] == pytest.approx(20.0 * 16.0)

    def test_unsupported_resources_collapse(self):
        space = default_design_space(20.0, supports_solar=True, supports_wind=False)
        assert space.wind_mw == (0.0,)
        assert len(space.solar_mw) > 1

    def test_validation(self):
        with pytest.raises(ValueError):
            default_design_space(0.0, True, True)
        with pytest.raises(ValueError):
            default_design_space(10.0, True, True, n_renewable_steps=1)
