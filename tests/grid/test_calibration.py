"""Tests for the synthetic-substrate calibration fingerprints."""

import pytest

from repro.grid import TABLE1_AUTHORITY_CODES, generate_grid_dataset
from repro.grid.calibration import fingerprint, fingerprint_all


@pytest.fixture(scope="module")
def all_fingerprints():
    return fingerprint_all(TABLE1_AUTHORITY_CODES)


class TestFingerprint:
    def test_wind_cf_calibrated_everywhere(self, all_fingerprints):
        # Fingerprints measure *delivered* wind (post-curtailment), so a few
        # percent below the raw-generation target is expected.
        for fp in all_fingerprints:
            if fp.wind_cf_target > 0:
                error = abs(fp.wind_capacity_factor - fp.wind_cf_target) / fp.wind_cf_target
                assert error < 0.06, fp.authority_code
                assert fp.wind_capacity_factor <= fp.wind_cf_target + 1e-9

    def test_solar_never_leaks_into_night(self, all_fingerprints):
        for fp in all_fingerprints:
            assert fp.solar_night_leak_mwh == 0.0, fp.authority_code

    def test_bpat_is_most_volatile(self, all_fingerprints):
        by_code = {fp.authority_code: fp for fp in all_fingerprints}
        bpat = by_code["BPAT"]
        for code in ("MISO", "SWPP", "ERCO", "PACE", "PNM"):
            assert bpat.daily_volatility_cv > by_code[code].daily_volatility_cv

    def test_bpat_best10_near_paper_quote(self, all_fingerprints):
        # Paper: ~2.5x; one weather draw can land anywhere in a band around
        # that (the multi-seed average is checked in tests/grid/test_synthetic).
        by_code = {fp.authority_code: fp for fp in all_fingerprints}
        assert 2.0 < by_code["BPAT"].best10_ratio < 3.6

    def test_bpat_has_deep_valleys(self, all_fingerprints):
        by_code = {fp.authority_code: fp for fp in all_fingerprints}
        assert by_code["BPAT"].near_zero_wind_days >= 5
        assert by_code["BPAT"].worst10_ratio < 0.1

    def test_plains_wind_has_shallow_valleys(self, all_fingerprints):
        by_code = {fp.authority_code: fp for fp in all_fingerprints}
        for code in ("MISO", "SWPP"):
            assert by_code[code].near_zero_wind_days <= 5

    def test_solar_regions_have_tight_histograms(self, all_fingerprints):
        """Solar-only regions must be the least day-to-day volatile."""
        by_class = {}
        for fp in all_fingerprints:
            by_class.setdefault(fp.renewable_class, []).append(fp.daily_volatility_cv)
        max_solar = max(by_class["majorly solar"])
        min_wind = min(by_class["majorly wind"])
        assert max_solar < min_wind

    def test_renewable_shares_plausible(self, all_fingerprints):
        for fp in all_fingerprints:
            assert 0.02 < fp.renewable_share < 0.6, fp.authority_code

    def test_single_fingerprint_consistent_with_batch(self, all_fingerprints):
        single = fingerprint(generate_grid_dataset("PACE"))
        batch = next(fp for fp in all_fingerprints if fp.authority_code == "PACE")
        assert single == batch

    def test_empty_codes_rejected(self):
        with pytest.raises(ValueError):
            fingerprint_all(())
