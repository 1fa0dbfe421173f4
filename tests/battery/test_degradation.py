"""Tests for the battery capacity-fade model."""

import pytest

from repro.battery import BatterySpec
from repro.battery.degradation import END_OF_LIFE_FRACTION, DegradationModel
from repro.battery.chemistry import CALENDAR_LIFE_CAP_YEARS


@pytest.fixture()
def model():
    return DegradationModel(BatterySpec(100.0))


class TestFadeBudget:

    def test_cycle_budget_exhausts_fade_budget(self, model):
        """Running exactly the chemistry's cycle life reaches end of life
        (ignoring calendar aging)."""
        cycles = model.spec.chemistry.cycle_life(1.0)
        assert cycles * model.fade_per_cycle == pytest.approx(1.0 - END_OF_LIFE_FRACTION)

    def test_calendar_cap_exhausts_fade_budget(self, model):
        fade = CALENDAR_LIFE_CAP_YEARS * model.fade_per_year
        assert fade == pytest.approx(1.0 - END_OF_LIFE_FRACTION)

    def test_total_fade_is_the_end_of_life_gap(self, model):
        assert model.total_fade == pytest.approx(1.0 - END_OF_LIFE_FRACTION)
        retire_early = DegradationModel(model.spec, end_of_life_fraction=0.9)
        assert retire_early.total_fade == pytest.approx(0.1)
        # Both fade rates are sized against the budget, so the budget scales
        # the per-cycle fade and leaves the service life unchanged.
        assert retire_early.fade_per_cycle == pytest.approx(model.fade_per_cycle / 2)
        assert retire_early.service_years(365.0) == pytest.approx(model.service_years(365.0))

    def test_shallower_dod_fades_slower_per_cycle(self):
        full = DegradationModel(BatterySpec(100.0, depth_of_discharge=1.0))
        shallow = DegradationModel(BatterySpec(100.0, depth_of_discharge=0.8))
        assert shallow.fade_per_cycle < full.fade_per_cycle


class TestServiceYears:
    def test_one_cycle_per_day_shorter_than_calendar(self, model):
        service = model.service_years(cycles_per_year=365.0)
        # 3000-cycle budget at 365/yr ~ 8.2 years, minus calendar drag.
        assert 6.0 < service < 3000.0 / 365.0

    def test_idle_pack_lives_to_calendar_cap(self, model):
        assert model.service_years(0.0) == pytest.approx(CALENDAR_LIFE_CAP_YEARS)

    def test_heavier_duty_shorter_life(self, model):
        assert model.service_years(730.0) < model.service_years(365.0)


class TestValidation:
    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            DegradationModel(BatterySpec(0.0))

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValueError):
            DegradationModel(BatterySpec(10.0), end_of_life_fraction=1.0)

    def test_negative_service_inputs_rejected(self, model):
        with pytest.raises(ValueError):
            model.service_years(-1.0)
