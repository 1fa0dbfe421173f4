"""Tests for the energy-proportional server and datacenter power models."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datacenter import (
    DatacenterPowerModel,
    ServerModel,
    fleet_for_average_power,
)
from repro.timeseries import DEFAULT_CALENDAR, HourlySeries


class TestServerModel:
    def test_power_at_extremes(self):
        server = ServerModel(peak_w=200.0, idle_w=100.0)
        assert server.power_w(0.0) == 100.0
        assert server.power_w(1.0) == 200.0

    def test_power_is_linear(self):
        server = ServerModel(peak_w=200.0, idle_w=100.0)
        assert server.power_w(0.5) == 150.0

    def test_utilization_out_of_range_rejected(self):
        server = ServerModel()
        with pytest.raises(ValueError):
            server.power_w(-0.1)
        with pytest.raises(ValueError):
            server.power_w(1.1)

    def test_dynamic_range_is_peak_minus_idle(self):
        server = ServerModel(peak_w=250.0, idle_w=90.0)
        assert server.dynamic_range_w == 160.0
        assert server.power_w(1.0) - server.power_w(0.0) == pytest.approx(160.0)

    def test_idle_above_peak_rejected(self):
        with pytest.raises(ValueError):
            ServerModel(peak_w=100.0, idle_w=150.0)

    def test_non_positive_peak_rejected(self):
        with pytest.raises(ValueError):
            ServerModel(peak_w=0.0, idle_w=0.0)

    @given(st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=30, deadline=None)
    def test_power_monotone_in_utilization(self, u):
        server = ServerModel(peak_w=250.0, idle_w=90.0)
        assert server.power_w(u) >= server.power_w(0.0)
        assert server.power_w(u) <= server.power_w(1.0)


class TestDatacenterPowerModel:
    def test_peak_and_idle_ordering(self):
        model = DatacenterPowerModel(n_servers=1000)
        assert model.facility_power_mw(0.0) < model.peak_power_mw

    def test_it_power_excludes_facility_overheads(self):
        model = DatacenterPowerModel(n_servers=2000, pue=1.5, non_it_mw=3.0)
        assert model.it_power_mw(0.5) == pytest.approx(2000 * model.server.power_w(0.5) / 1e6)
        assert model.facility_power_mw(0.5) == pytest.approx(1.5 * model.it_power_mw(0.5) + 3.0)

    def test_pue_scales_it_power(self):
        low = DatacenterPowerModel(n_servers=1000, pue=1.0)
        high = DatacenterPowerModel(n_servers=1000, pue=1.5)
        assert high.facility_power_mw(0.5) == pytest.approx(
            1.5 * low.facility_power_mw(0.5)
        )

    def test_non_it_adds_constant(self):
        base = DatacenterPowerModel(n_servers=1000, non_it_mw=0.0)
        shifted = DatacenterPowerModel(n_servers=1000, non_it_mw=2.0)
        assert shifted.facility_power_mw(0.3) == pytest.approx(
            base.facility_power_mw(0.3) + 2.0
        )

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            DatacenterPowerModel(n_servers=0)
        with pytest.raises(ValueError):
            DatacenterPowerModel(n_servers=10, pue=0.9)
        with pytest.raises(ValueError):
            DatacenterPowerModel(n_servers=10, non_it_mw=-1.0)

    def test_power_trace_matches_scalar_model(self):
        model = DatacenterPowerModel(n_servers=1000)
        utilization = HourlySeries.constant(0.6, DEFAULT_CALENDAR)
        trace = model.power_trace(utilization)
        assert trace.mean() == pytest.approx(model.facility_power_mw(0.6))

    def test_power_trace_rejects_out_of_range(self):
        model = DatacenterPowerModel(n_servers=10)
        bad = HourlySeries.constant(1.5, DEFAULT_CALENDAR)
        with pytest.raises(ValueError):
            model.power_trace(bad)


class TestFleetSizing:
    def test_hits_average_power(self):
        model = fleet_for_average_power(19.0, avg_utilization=0.55)
        assert model.facility_power_mw(0.55) == pytest.approx(19.0, rel=1e-3)

    def test_compresses_utilization_swing(self):
        """The Fig. 3 fact: ~20-point utilization swing -> ~4% power swing."""
        model = fleet_for_average_power(50.0, avg_utilization=0.55)
        low = model.facility_power_mw(0.45)
        high = model.facility_power_mw(0.65)
        relative_swing = (high - low) / model.facility_power_mw(0.55)
        assert 0.02 < relative_swing < 0.07

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            fleet_for_average_power(0.0)
        with pytest.raises(ValueError):
            fleet_for_average_power(10.0, avg_utilization=0.0)
        with pytest.raises(ValueError):
            fleet_for_average_power(10.0, non_it_share=1.0)

    @given(st.floats(min_value=1.0, max_value=200.0))
    @settings(max_examples=20, deadline=None)
    def test_sizing_scales_with_power(self, avg_mw):
        model = fleet_for_average_power(avg_mw)
        assert model.facility_power_mw(0.55) == pytest.approx(avg_mw, rel=0.01)
