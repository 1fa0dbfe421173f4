"""Unit tests for the balancing-authority registry."""

import pytest

from repro.grid import (
    BALANCING_AUTHORITIES,
    TABLE1_AUTHORITY_CODES,
    RenewableClass,
    get_authority,
)


def table1_codes(renewable_class):
    return {
        code
        for code in TABLE1_AUTHORITY_CODES
        if get_authority(code).renewable_class is renewable_class
    }


class TestRegistry:
    def test_table1_has_ten_authorities(self):
        assert len(TABLE1_AUTHORITY_CODES) == 10

    def test_ciso_present_for_motivating_figures(self):
        assert "CISO" in BALANCING_AUTHORITIES
        assert "CISO" not in TABLE1_AUTHORITY_CODES

    def test_lookup_known(self):
        assert get_authority("BPAT").code == "BPAT"

    def test_lookup_unknown_names_known_codes(self):
        with pytest.raises(KeyError, match="BPAT"):
            get_authority("NOPE")

    def test_all_table1_codes_resolve(self):
        for code in TABLE1_AUTHORITY_CODES:
            assert get_authority(code).code == code


class TestPaperClassification:
    """§3.2: three wind (BPAT, MISO, SWPP), three solar (DUK, SOCO, TVA),
    four hybrid (ERCO, PACE, PJM, PNM)."""

    def test_wind_regions(self):
        assert table1_codes(RenewableClass.WIND) == {"BPAT", "MISO", "SWPP"}

    def test_solar_regions(self):
        assert table1_codes(RenewableClass.SOLAR) == {"DUK", "SOCO", "TVA"}

    def test_hybrid_regions(self):
        assert table1_codes(RenewableClass.HYBRID) == {"ERCO", "PACE", "PJM", "PNM"}


class TestProfileSanity:
    def test_solar_only_regions_have_zero_wind_capacity(self):
        for code in ("DUK", "SOCO", "TVA"):
            assert get_authority(code).wind.capacity_mw == 0.0

    def test_wind_regions_dominated_by_wind(self):
        for code in ("BPAT", "MISO", "SWPP"):
            authority = get_authority(code)
            assert authority.wind.capacity_mw > authority.solar.capacity_mw * 5

    def test_hybrids_have_both(self):
        for code in ("ERCO", "PACE", "PJM", "PNM"):
            authority = get_authority(code)
            assert authority.wind.capacity_mw > 0
            assert authority.solar.capacity_mw > 0

    def test_bpat_is_the_volatile_worst_case(self):
        """Oregon's deep-valley behaviour needs the highest calm bias."""
        bpat = get_authority("BPAT")
        for code in ("MISO", "SWPP", "ERCO", "PACE", "PNM"):
            assert bpat.wind.calm_bias > get_authority(code).wind.calm_bias
            assert bpat.wind.volatility > get_authority(code).wind.volatility

    def test_dispatch_fractions_sane(self):
        for authority in BALANCING_AUTHORITIES.values():
            dispatch = authority.dispatch
            assert 0.0 <= dispatch.nuclear_fraction <= 0.6
            assert 0.0 <= dispatch.hydro_fraction <= 0.6
            assert 0.0 <= dispatch.coal_share <= 1.0
