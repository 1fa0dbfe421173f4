"""Energy sources and their lifecycle carbon intensities (paper Table 2).

The paper's Table 2 lists the carbon efficiency of grid energy sources in
grams of CO2-equivalent per kWh generated.  These lifecycle numbers drive
both the hourly grid carbon-intensity calculation (operational footprint of
energy drawn from the grid) and — for wind and solar — the embodied footprint
attributed to a datacenter's own renewable investments, since for renewables
the lifecycle figure *is* the amortized manufacturing cost per kWh.
"""

from __future__ import annotations

from enum import Enum, unique
from typing import Dict


@unique
class EnergySource(Enum):
    """A grid generation fuel type, as reported by EIA balancing authorities."""

    WIND = "wind"
    SOLAR = "solar"
    WATER = "water"
    NUCLEAR = "nuclear"
    NATURAL_GAS = "natural_gas"
    COAL = "coal"
    OIL = "oil"
    OTHER = "other"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Table 2 — Carbon Efficiency of Various Energy Sources (gCO2eq/kWh).
CARBON_INTENSITY_G_PER_KWH: Dict[EnergySource, float] = {
    EnergySource.WIND: 11.0,
    EnergySource.SOLAR: 41.0,
    EnergySource.WATER: 24.0,
    EnergySource.NUCLEAR: 12.0,
    EnergySource.NATURAL_GAS: 490.0,
    EnergySource.COAL: 820.0,
    EnergySource.OIL: 650.0,
    EnergySource.OTHER: 230.0,
}
