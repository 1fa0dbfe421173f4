"""Unit tests for the energy-source registry (Table 2)."""

from repro.grid import CARBON_INTENSITY_G_PER_KWH, EnergySource


class TestTable2Values:
    """The registry must print exactly the paper's Table 2."""

    def test_wind(self):
        assert CARBON_INTENSITY_G_PER_KWH[EnergySource.WIND] == 11.0

    def test_solar(self):
        assert CARBON_INTENSITY_G_PER_KWH[EnergySource.SOLAR] == 41.0

    def test_water(self):
        assert CARBON_INTENSITY_G_PER_KWH[EnergySource.WATER] == 24.0

    def test_nuclear(self):
        assert CARBON_INTENSITY_G_PER_KWH[EnergySource.NUCLEAR] == 12.0

    def test_natural_gas(self):
        assert CARBON_INTENSITY_G_PER_KWH[EnergySource.NATURAL_GAS] == 490.0

    def test_coal(self):
        assert CARBON_INTENSITY_G_PER_KWH[EnergySource.COAL] == 820.0

    def test_oil(self):
        assert CARBON_INTENSITY_G_PER_KWH[EnergySource.OIL] == 650.0

    def test_other(self):
        assert CARBON_INTENSITY_G_PER_KWH[EnergySource.OTHER] == 230.0

    def test_every_source_has_an_intensity(self):
        for source in EnergySource:
            assert source in CARBON_INTENSITY_G_PER_KWH
