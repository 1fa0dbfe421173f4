"""Tests for synthetic datacenter demand (the Fig. 3 characteristics)."""

import numpy as np
import pytest

from repro.datacenter import (
    GOOGLE_BORG_PROFILE,
    UtilizationProfile,
    get_site,
    meta_and_google_profiles,
    synthesize_demand,
    synthesize_utilization,
)
from repro.timeseries import DEFAULT_CALENDAR, pearson_correlation


@pytest.fixture(scope="module")
def ut_demand():
    return synthesize_demand(get_site("UT"), DEFAULT_CALENDAR)


class TestUtilizationProfile:
    def test_defaults_valid(self):
        UtilizationProfile()

    def test_invalid_mean_rejected(self):
        with pytest.raises(ValueError):
            UtilizationProfile(mean_utilization=0.0)
        with pytest.raises(ValueError):
            UtilizationProfile(mean_utilization=1.0)

    def test_invalid_swing_rejected(self):
        with pytest.raises(ValueError):
            UtilizationProfile(diurnal_swing=-0.1)
        with pytest.raises(ValueError):
            UtilizationProfile(diurnal_swing=1.0)

    def test_invalid_peak_hour_rejected(self):
        with pytest.raises(ValueError):
            UtilizationProfile(peak_hour=24)

    def test_google_profile_swing(self):
        assert GOOGLE_BORG_PROFILE.diurnal_swing == 0.15


class TestSynthesizeUtilization:
    def test_bounded(self, rng):
        s = synthesize_utilization(UtilizationProfile(), DEFAULT_CALENDAR, rng)
        assert s.min() >= 0.02
        assert s.max() <= 0.98

    def test_mean_near_profile(self, rng):
        s = synthesize_utilization(UtilizationProfile(), DEFAULT_CALENDAR, rng)
        assert s.mean() == pytest.approx(0.55, abs=0.03)

    def test_diurnal_peak_hour(self, rng):
        profile = UtilizationProfile(peak_hour=20, noise=0.0, n_event_days=0)
        s = synthesize_utilization(profile, DEFAULT_CALENDAR, rng)
        assert int(np.argmax(s.average_day_profile())) == 20

    def test_weekend_dip(self, rng):
        profile = UtilizationProfile(noise=0.0, n_event_days=0)
        s = synthesize_utilization(profile, DEFAULT_CALENDAR, rng)
        weekend_mask = np.array(
            [DEFAULT_CALENDAR.is_weekend(d * 24) for d in range(DEFAULT_CALENDAR.n_days)]
        )
        daily = s.daily_means()
        assert daily[~weekend_mask].mean() > daily[weekend_mask].mean()


class TestSynthesizedDemand:
    def test_average_power_matches_site(self, ut_demand):
        assert ut_demand.avg_power_mw == pytest.approx(19.0, rel=0.02)

    def test_diurnal_utilization_swing_about_20_points(self, ut_demand):
        assert 0.15 < ut_demand.diurnal_utilization_swing_points() < 0.26

    def test_diurnal_power_swing_about_4_percent(self, ut_demand):
        """§3.1: 'the difference between maximum and minimum energy demand is
        around 4%, on average'."""
        assert 0.025 < ut_demand.diurnal_power_swing() < 0.065

    def test_power_and_utilization_strongly_correlated(self, ut_demand):
        """Fig. 3 right: energy-proportional servers correlate power with CPU."""
        corr = pearson_correlation(
            ut_demand.utilization.values, ut_demand.power.values
        )
        assert corr > 0.999  # linear map -> essentially perfect

    def test_deterministic_in_seed(self):
        a = synthesize_demand(get_site("UT"), DEFAULT_CALENDAR, seed=0)
        b = synthesize_demand(get_site("UT"), DEFAULT_CALENDAR, seed=0)
        assert a.power == b.power

    def test_seeds_differ(self):
        a = synthesize_demand(get_site("UT"), DEFAULT_CALENDAR, seed=0)
        b = synthesize_demand(get_site("UT"), DEFAULT_CALENDAR, seed=1)
        assert a.power != b.power

    def test_sites_draw_independent_noise(self):
        a = synthesize_demand(get_site("UT"), DEFAULT_CALENDAR)
        b = synthesize_demand(get_site("OR"), DEFAULT_CALENDAR)
        assert a.utilization != b.utilization

    def test_peak_power_bounded_by_fleet(self, ut_demand):
        assert ut_demand.power.max() <= ut_demand.fleet.peak_power_mw + 1e-9


class TestFig3Profiles:
    def test_meta_swings_more_than_google(self):
        """Fig. 3 left: Meta ~20-point swing, Google ~15-point."""
        meta, google = meta_and_google_profiles(DEFAULT_CALENDAR)
        meta_days = meta.values.reshape(-1, 24)
        google_days = google.values.reshape(-1, 24)
        meta_swing = (meta_days.max(axis=1) - meta_days.min(axis=1)).mean()
        google_swing = (google_days.max(axis=1) - google_days.min(axis=1)).mean()
        assert meta_swing > google_swing

    def test_profiles_are_named(self):
        meta, google = meta_and_google_profiles(DEFAULT_CALENDAR)
        assert meta.name == "Meta"
        assert google.name == "Google"
