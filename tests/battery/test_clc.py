"""Tests for the C/L/C battery model's constraint families."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.battery import LFP, Battery, BatterySpec, CellChemistry

#: Lossless 1C chemistry for exact-arithmetic tests.
IDEAL = CellChemistry(
    name="ideal",
    charge_efficiency=1.0,
    discharge_efficiency=1.0,
    max_charge_c_rate=1.0,
    max_discharge_c_rate=1.0,
    cycle_life_points=((0.5, 8000.0), (1.0, 3000.0)),
)


class TestBatterySpec:
    def test_floor_and_usable(self):
        spec = BatterySpec(100.0, depth_of_discharge=0.8)
        assert spec.floor_mwh == pytest.approx(20.0)
        assert spec.usable_mwh == pytest.approx(80.0)

    def test_full_dod_has_no_floor(self):
        assert BatterySpec(100.0).floor_mwh == 0.0

    def test_c_rate_limits_scale_with_capacity(self):
        spec = BatterySpec(50.0)
        assert spec.max_charge_mw == 50.0
        assert spec.max_discharge_mw == 50.0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            BatterySpec(-1.0)

    def test_invalid_dod_rejected(self):
        with pytest.raises(ValueError):
            BatterySpec(10.0, depth_of_discharge=0.0)
        with pytest.raises(ValueError):
            BatterySpec(10.0, depth_of_discharge=1.1)

    def test_lifetime_uses_chemistry(self):
        spec = BatterySpec(10.0, depth_of_discharge=0.8)
        assert spec.lifetime_years() == pytest.approx(LFP.lifetime_years(0.8))


class TestCapacityLimits:
    def test_starts_full_by_default(self):
        battery = Battery(BatterySpec(100.0, chemistry=IDEAL))
        assert battery.energy_mwh == 100.0
        assert battery.state_of_charge == 1.0

    def test_initial_soc_respects_dod_floor(self):
        battery = Battery(BatterySpec(100.0, chemistry=IDEAL, depth_of_discharge=0.8), initial_soc=0.0)
        assert battery.energy_mwh == pytest.approx(20.0)

    def test_cannot_overfill(self):
        battery = Battery(BatterySpec(100.0, chemistry=IDEAL), initial_soc=1.0)
        assert battery.charge(50.0) == 0.0
        assert battery.energy_mwh == 100.0

    def test_cannot_discharge_below_floor(self):
        spec = BatterySpec(100.0, chemistry=IDEAL, depth_of_discharge=0.8)
        battery = Battery(spec, initial_soc=1.0)
        delivered = battery.discharge(100.0)
        assert delivered == pytest.approx(80.0)
        assert battery.energy_mwh == pytest.approx(20.0)

    def test_zero_capacity_battery_is_noop(self):
        battery = Battery(BatterySpec(0.0))
        assert battery.charge(10.0) == 0.0
        assert battery.discharge(10.0) == 0.0
        assert battery.state_of_charge == 0.0
        assert battery.equivalent_full_cycles() == 0.0


    def test_headroom_and_available_split_the_pack(self):
        spec = BatterySpec(100.0, chemistry=IDEAL, depth_of_discharge=0.8)
        # initial_soc spans the usable band: 20 MWh floor + 0.5 * 80 MWh.
        battery = Battery(spec, initial_soc=0.5)
        assert battery.headroom_mwh == pytest.approx(40.0)
        assert battery.available_mwh == pytest.approx(40.0)
        battery.discharge(100.0)
        assert battery.available_mwh == pytest.approx(0.0)
        assert battery.headroom_mwh == pytest.approx(80.0)


class TestCRateLimits:
    def test_charge_power_capped_at_c_rate(self):
        battery = Battery(BatterySpec(100.0, chemistry=IDEAL), initial_soc=0.0)
        assert battery.charge(500.0) == pytest.approx(100.0)

    def test_discharge_power_capped_at_c_rate(self):
        battery = Battery(BatterySpec(100.0, chemistry=IDEAL), initial_soc=1.0)
        assert battery.discharge(500.0) == pytest.approx(100.0)

    def test_sub_hour_duration_scales_energy(self):
        battery = Battery(BatterySpec(100.0, chemistry=IDEAL), initial_soc=0.0)
        battery.charge(100.0, duration_h=0.5)
        assert battery.energy_mwh == pytest.approx(50.0)


class TestEfficiencyLosses:
    def test_charge_loss(self):
        spec = BatterySpec(100.0)  # LFP: 97% charge efficiency
        battery = Battery(spec, initial_soc=0.0)
        absorbed = battery.charge(10.0)
        assert absorbed == pytest.approx(10.0)
        assert battery.energy_mwh == pytest.approx(9.7)

    def test_discharge_loss(self):
        spec = BatterySpec(100.0)
        battery = Battery(spec, initial_soc=1.0)
        delivered = battery.discharge(9.7)
        assert delivered == pytest.approx(9.7)
        assert battery.energy_mwh == pytest.approx(100.0 - 9.7 / 0.97)

    def test_round_trip_loses_energy(self):
        spec = BatterySpec(100.0)
        battery = Battery(spec, initial_soc=0.0)
        battery.charge(50.0)
        delivered = battery.discharge(1000.0)
        assert delivered < 50.0
        assert delivered == pytest.approx(50.0 * 0.97 * 0.97)

    def test_headroom_respected_after_losses(self):
        """Charging near full must not overshoot capacity after efficiency."""
        battery = Battery(BatterySpec(100.0), initial_soc=0.99)
        battery.charge(100.0)
        assert battery.energy_mwh <= 100.0 + 1e-9


class TestAccounting:
    def test_cycle_counting(self):
        spec = BatterySpec(100.0, chemistry=IDEAL)
        battery = Battery(spec, initial_soc=1.0)
        battery.discharge(100.0)
        battery.charge(100.0)
        battery.discharge(100.0)
        assert battery.equivalent_full_cycles() == pytest.approx(2.0)

    def test_meter_totals(self):
        battery = Battery(BatterySpec(100.0, chemistry=IDEAL), initial_soc=0.0)
        battery.charge(30.0)
        battery.discharge(10.0)
        assert battery.charged_mwh == pytest.approx(30.0)
        assert battery.discharged_mwh == pytest.approx(10.0)

    def test_reset(self):
        battery = Battery(BatterySpec(100.0, chemistry=IDEAL), initial_soc=1.0)
        battery.discharge(40.0)
        battery.reset()
        assert battery.energy_mwh == 100.0
        assert battery.discharged_mwh == 0.0

    def test_validation(self):
        battery = Battery(BatterySpec(100.0))
        with pytest.raises(ValueError):
            battery.charge(-1.0)
        with pytest.raises(ValueError):
            battery.discharge(-1.0)
        with pytest.raises(ValueError):
            battery.charge(1.0, duration_h=0.0)
        with pytest.raises(ValueError):
            Battery(BatterySpec(10.0), initial_soc=1.5)


class TestInvariantsProperty:
    @given(
        st.lists(
            st.tuples(st.booleans(), st.floats(min_value=0.0, max_value=200.0)),
            min_size=1,
            max_size=60,
        ),
        st.floats(min_value=0.5, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_energy_always_within_bounds(self, operations, dod):
        """Under any operation sequence the energy content stays within
        [floor, capacity] and delivered/absorbed power within C-rate."""
        spec = BatterySpec(100.0, depth_of_discharge=dod)
        battery = Battery(spec, initial_soc=0.5)
        for is_charge, power in operations:
            moved = battery.charge(power) if is_charge else battery.discharge(power)
            assert 0.0 <= moved <= min(power, 100.0) + 1e-9
            assert spec.floor_mwh - 1e-9 <= battery.energy_mwh <= 100.0 + 1e-9
