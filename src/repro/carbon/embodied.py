"""Embodied-carbon models (paper §5.1).

Every solution Carbon Explorer considers buys hardware, and hardware carries
manufacturing ("embodied") carbon:

* **Renewable farms** — life-cycle analyses amortize manufacturing over
  lifetime generation: wind 10-15 gCO2/kWh (paper's Table 2 uses 11), solar
  40-70 (Table 2 uses 41).  Lifetimes: solar 25-30 years, wind 20 years.
  Because the footprint is quoted *per kWh generated*, a farm's annual
  embodied carbon is its annual generation times the intensity — whether or
  not the datacenter consumed that energy, which is exactly why overbuilding
  renewables stops paying (Figs. 14, 15).
* **Batteries** — 74-134 kgCO2 per kWh of capacity, from upstream materials
  (59 kg/kWh), cell production (0-60 kg/kWh depending on factory energy),
  and end-of-life processing (15 kg/kWh).  Lifetime is counted in discharge
  cycles and depends on DoD (see :mod:`repro.battery.chemistry`).
* **Servers** — 744.5 kgCO2eq per server (HPE ProLiant DL360 Gen10 proxy)
  times a 1.16 construction surcharge (Meta Scope 3: construction is 16% of
  hardware), amortized over a 5-year server lifetime.

All annual figures are metric tons of CO2-equivalent per year.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..battery import BatterySpec
from ..timeseries import HourlySeries
from ..timeseries.stats import is_exact_zero

#: Grams CO2eq per kWh generated over a wind farm's life (Table 2 / §5.1).
WIND_EMBODIED_G_PER_KWH = 11.0
WIND_EMBODIED_RANGE_G_PER_KWH = (10.0, 15.0)

#: Grams CO2eq per kWh generated over a solar farm's life (Table 2 / §5.1).
SOLAR_EMBODIED_G_PER_KWH = 41.0
SOLAR_EMBODIED_RANGE_G_PER_KWH = (40.0, 70.0)

#: Asset lifetimes (§5.1).
SOLAR_LIFETIME_YEARS = 27.5  # "25-30 years"
WIND_LIFETIME_YEARS = 20.0

#: Battery manufacturing footprint, kgCO2 per kWh of capacity (§5.1).
BATTERY_MATERIALS_KG_PER_KWH = 59.0
BATTERY_CELL_PRODUCTION_KG_PER_KWH = 30.0  # 0-60 depending on factory energy
BATTERY_RECYCLING_KG_PER_KWH = 15.0
BATTERY_EMBODIED_KG_PER_KWH = (
    BATTERY_MATERIALS_KG_PER_KWH
    + BATTERY_CELL_PRODUCTION_KG_PER_KWH
    + BATTERY_RECYCLING_KG_PER_KWH
)
BATTERY_EMBODIED_RANGE_KG_PER_KWH = (74.0, 134.0)

#: Server manufacturing footprint (HPE DL360 Gen10 proxy) and lifetime.
SERVER_EMBODIED_KG = 744.5
SERVER_LIFETIME_YEARS = 5.0

#: Surcharge covering floor space and facility construction: construction is
#: ~16% of hardware's Scope-3 carbon, so servers are multiplied by 1.16.
CONSTRUCTION_MULTIPLIER = 1.16

_KG_PER_TON = 1000.0
_KWH_PER_MWH = 1000.0
_G_PER_TON = 1e6


@dataclass(frozen=True)
class EmbodiedCarbonModel:
    """Parameterized embodied-carbon accounting.

    The paper "emphasizes parameterized models because our understanding of
    carbon emissions in computing is still rapidly evolving" (§6); every
    coefficient is overridable, with defaults set to the paper's values.
    """

    wind_g_per_kwh: float = WIND_EMBODIED_G_PER_KWH
    solar_g_per_kwh: float = SOLAR_EMBODIED_G_PER_KWH
    battery_kg_per_kwh: float = BATTERY_EMBODIED_KG_PER_KWH
    server_kg: float = SERVER_EMBODIED_KG
    server_lifetime_years: float = SERVER_LIFETIME_YEARS
    construction_multiplier: float = CONSTRUCTION_MULTIPLIER

    def __post_init__(self) -> None:
        for name in (
            "wind_g_per_kwh",
            "solar_g_per_kwh",
            "battery_kg_per_kwh",
            "server_kg",
            "server_lifetime_years",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.construction_multiplier < 1.0:
            raise ValueError(
                f"construction_multiplier must be >= 1, got {self.construction_multiplier}"
            )

    # ------------------------------------------------------------------
    # Renewables
    # ------------------------------------------------------------------
    def renewables_annual_tons(
        self, solar_generation: HourlySeries, wind_generation: HourlySeries
    ) -> float:
        """Annual embodied carbon (tons/yr) of solar + wind farms.

        Because the LCA coefficients amortize manufacturing over lifetime
        *generation*, a year's share is simply that year's generation times
        the coefficient — independent of how much the datacenter used.
        """
        return self.renewables_annual_tons_from_totals(
            solar_generation.total(), wind_generation.total()
        )

    def renewables_annual_tons_from_totals(
        self, solar_mwh: float, wind_mwh: float
    ) -> float:
        """:meth:`renewables_annual_tons` from annual generation totals, MWh."""
        if solar_mwh < 0 or wind_mwh < 0:
            raise ValueError("generation totals must be non-negative")
        grams = (
            solar_mwh * _KWH_PER_MWH * self.solar_g_per_kwh
            + wind_mwh * _KWH_PER_MWH * self.wind_g_per_kwh
        )
        return grams / _G_PER_TON

    # ------------------------------------------------------------------
    # Batteries
    # ------------------------------------------------------------------
    def battery_total_tons(self, spec: BatterySpec) -> float:
        """One-time manufacturing footprint (tons) of a battery installation.

        Chemistries carrying their own ``embodied_kg_per_kwh`` (e.g.
        sodium-ion) override the model's default LIB coefficient.
        """
        kg_per_kwh = spec.chemistry.embodied_kg_per_kwh
        if kg_per_kwh is None:
            kg_per_kwh = self.battery_kg_per_kwh
        return spec.capacity_mwh * _KWH_PER_MWH * kg_per_kwh / _KG_PER_TON

    def battery_annual_tons(
        self, spec: BatterySpec, cycles_per_day: float = 1.0
    ) -> float:
        """Annual embodied carbon (tons/yr) of a battery installation.

        The one-time footprint is amortized over the lifetime implied by
        the chemistry's cycle life at this spec's DoD and the observed duty
        cycle.  Gentler duty (fewer cycles/day) stretches lifetime and
        lowers the annual charge — but never past the 27-year calendar cap.
        """
        if is_exact_zero(spec.capacity_mwh):
            return 0.0
        # An idle battery still ages; floor the duty cycle so amortization
        # stays finite and the calendar cap binds.
        effective_duty = max(cycles_per_day, 1e-3)
        lifetime = spec.lifetime_years(cycles_per_day=effective_duty)
        return self.battery_total_tons(spec) / lifetime

    # ------------------------------------------------------------------
    # Servers
    # ------------------------------------------------------------------
    def server_total_tons(self, n_servers: int) -> float:
        """One-time footprint (tons) of ``n_servers``, with the construction
        surcharge applied."""
        if n_servers < 0:
            raise ValueError(f"n_servers must be non-negative, got {n_servers}")
        return (
            n_servers * self.server_kg * self.construction_multiplier / _KG_PER_TON
        )

    def servers_annual_tons(self, n_servers: int) -> float:
        """Annual embodied carbon (tons/yr) of ``n_servers`` over their
        5-year life."""
        return self.server_total_tons(n_servers) / self.server_lifetime_years


#: Model instantiated with the paper's default coefficients.
DEFAULT_EMBODIED_MODEL = EmbodiedCarbonModel()
