"""Tests for the time-of-use pricing model."""

import numpy as np
import pytest

from repro.grid.pricing import (
    PriceModel,
    hourly_prices,
    price_carbon_alignment,
)


class TestPriceModel:
    def test_defaults_valid(self):
        PriceModel()

    def test_negative_slope_rejected(self):
        with pytest.raises(ValueError):
            PriceModel(slope=-1.0)

    def test_sublinear_convexity_rejected(self):
        with pytest.raises(ValueError):
            PriceModel(convexity=0.5)


class TestHourlyPrices:
    def test_prices_bounded_by_model(self, pace_grid):
        model = PriceModel()
        prices = hourly_prices(pace_grid, model)
        assert prices.min() >= model.curtailment_price
        assert prices.max() <= model.base_price + model.slope + 1e-9

    def test_curtailment_hours_priced_negative(self):
        """CISO has genuine curtailment; those hours get the negative price."""
        from repro.grid import generate_grid_dataset

        ciso = generate_grid_dataset("CISO")
        model = PriceModel()
        prices = hourly_prices(ciso, model)
        curtailing = ciso.curtailed.values > 1e-9
        assert curtailing.any()
        assert np.all(prices.values[curtailing] == model.curtailment_price)

    def test_scarcity_hours_cost_more(self, pace_grid):
        """Top-decile fossil-residual hours must out-price bottom-decile."""
        from repro.grid import EnergySource

        prices = hourly_prices(pace_grid).values
        fossil = (
            pace_grid.source(EnergySource.NATURAL_GAS).values
            + pace_grid.source(EnergySource.COAL).values
        )
        top = prices[fossil >= np.quantile(fossil, 0.9)].mean()
        bottom = prices[fossil <= np.quantile(fossil, 0.1)].mean()
        assert top > bottom


class TestAlignment:
    def test_alignment_positive_on_fossil_marginal_grids(self, pace_grid):
        """On a coal/gas-marginal grid, cheap hours are renewable-rich, so
        price ranks should correlate with carbon ranks."""
        assert price_carbon_alignment(pace_grid) > 0.5

    def test_alignment_bounded(self, bpat_grid, duk_grid):
        for grid in (bpat_grid, duk_grid):
            alignment = price_carbon_alignment(grid)
            assert -1.0 <= alignment <= 1.0
