"""Tests for renewable-investment scaling (§4.1's projection rule)."""

import numpy as np
import pytest

from repro.grid import (
    RenewableInvestment,
    projected_supply,
    scale_trace_to_capacity,
)


class TestRenewableInvestment:
    def test_totals(self):
        inv = RenewableInvestment(solar_mw=100, wind_mw=50)
        assert inv.total_mw == 150

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            RenewableInvestment(solar_mw=-1)

    def test_addition(self):
        total = RenewableInvestment(10, 20) + RenewableInvestment(5, 5)
        assert total.solar_mw == 15 and total.wind_mw == 25

    def test_scaled(self):
        inv = RenewableInvestment(10, 20).scaled(2.0)
        assert inv.solar_mw == 20 and inv.wind_mw == 40

    def test_scaled_negative_rejected(self):
        with pytest.raises(ValueError):
            RenewableInvestment(10, 20).scaled(-1.0)

    def test_default_is_zero(self):
        assert RenewableInvestment().total_mw == 0.0


class TestScaleTrace:
    def test_peak_equals_capacity(self, pace_grid):
        scaled = scale_trace_to_capacity(pace_grid.wind, 123.0)
        assert scaled.max() == pytest.approx(123.0)

    def test_shape_preserved(self, pace_grid):
        scaled = scale_trace_to_capacity(pace_grid.wind, 100.0)
        ratio = scaled.values[pace_grid.wind.values > 1.0] / pace_grid.wind.values[
            pace_grid.wind.values > 1.0
        ]
        assert np.allclose(ratio, ratio[0])

    def test_zero_capacity_gives_zeros(self, pace_grid):
        assert scale_trace_to_capacity(pace_grid.wind, 0.0).total() == 0.0

    def test_negative_capacity_rejected(self, pace_grid):
        with pytest.raises(ValueError):
            scale_trace_to_capacity(pace_grid.wind, -5.0)

    def test_all_zero_trace_with_positive_capacity_rejected(self, duk_grid):
        with pytest.raises(ValueError):
            scale_trace_to_capacity(duk_grid.wind, 10.0)


class TestProjectedSupply:
    def test_sum_of_components(self, pace_grid):
        inv = RenewableInvestment(solar_mw=100.0, wind_mw=50.0)
        supply = projected_supply(pace_grid, inv)
        solar_only = projected_supply(pace_grid, RenewableInvestment(solar_mw=100.0))
        wind_only = projected_supply(pace_grid, RenewableInvestment(wind_mw=50.0))
        assert np.allclose(supply.values, solar_only.values + wind_only.values)

    def test_zero_investment_is_zero_supply(self, pace_grid):
        assert projected_supply(pace_grid, RenewableInvestment()).total() == 0.0

    def test_linear_in_investment(self, pace_grid):
        small = projected_supply(pace_grid, RenewableInvestment(wind_mw=10.0))
        large = projected_supply(pace_grid, RenewableInvestment(wind_mw=20.0))
        assert np.allclose(large.values, 2.0 * small.values)

    def test_wind_in_solar_only_region_rejected(self, duk_grid):
        with pytest.raises(ValueError):
            projected_supply(duk_grid, RenewableInvestment(wind_mw=10.0))
