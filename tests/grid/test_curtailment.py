"""Tests for the Figure 4 curtailment-trend model."""

import pytest

from repro.grid import (
    CISO_BUILDOUT_BY_YEAR,
    curtailment_trendline,
    simulate_historical_curtailment,
)


@pytest.fixture(scope="module")
def ciso_records():
    return simulate_historical_curtailment("CISO")


class TestHistoricalTrend:
    def test_one_record_per_year(self, ciso_records):
        assert [r.year for r in ciso_records] == sorted(CISO_BUILDOUT_BY_YEAR)

    def test_fractions_in_unit_interval(self, ciso_records):
        for record in ciso_records:
            assert 0.0 <= record.solar_curtailed_fraction <= 1.0
            assert 0.0 <= record.wind_curtailed_fraction <= 1.0
            assert 0.0 <= record.total_curtailed_fraction <= 1.0

    def test_curtailment_grows_with_buildout(self, ciso_records):
        """Fig. 4's core fact: later years curtail a larger fraction."""
        assert (
            ciso_records[-1].total_curtailed_fraction
            > ciso_records[0].total_curtailed_fraction
        )

    def test_trendline_slope_positive(self, ciso_records):
        slope, _ = curtailment_trendline(ciso_records)
        assert slope > 0.0

    def test_2021_curtailment_order_of_magnitude(self, ciso_records):
        """The paper reports ~6% CISO curtailment in 2021; require the same
        order of magnitude from the synthetic grid."""
        final = ciso_records[-1]
        assert 0.01 < final.total_curtailed_fraction < 0.20

    def test_renewable_share_grows(self, ciso_records):
        assert ciso_records[-1].renewable_share > ciso_records[0].renewable_share


class TestValidation:
    def test_empty_buildout_rejected(self):
        with pytest.raises(ValueError):
            simulate_historical_curtailment("CISO", buildout={})

    def test_negative_factor_rejected(self):
        with pytest.raises(ValueError):
            simulate_historical_curtailment("CISO", buildout={2020: (-1.0, 1.0)})

    def test_trendline_needs_two_records(self, ciso_records):
        with pytest.raises(ValueError):
            curtailment_trendline(ciso_records[:1])
