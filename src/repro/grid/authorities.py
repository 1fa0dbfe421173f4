"""Balancing-authority registry and per-region renewable profiles.

The paper draws hourly generation data from the EIA Hourly Grid Monitor for
the ten balancing authorities (BAs) that host Meta's thirteen US datacenters
(Table 1), plus the California ISO for the motivating Figures 1 and 4.  With
no network access, this module instead parameterizes each BA for the
synthetic generator in :mod:`repro.grid.synthetic`.  Parameters are chosen so
the *shape* facts the paper relies on hold:

* BPAT (Oregon) is wind-dominated with extreme day-to-day swings and days of
  near-zero output — the paper's worst case for valleys.
* MISO (Iowa) and SWPP (Nebraska) are wind-dominated with shallower valleys —
  the paper's best sites.
* DUK (North Carolina), SOCO (Georgia), and TVA (Tennessee/Alabama) are
  solar-only, capping unaided 24/7 coverage near ~50%.
* ERCO (Texas), PACE (Utah), PJM, and PNM are hybrids whose wind and solar
  complement each other.
* CISO (California) has the highest renewable share and visible curtailment.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, unique
from typing import Dict, Tuple


@unique
class RenewableClass(Enum):
    """The paper's three-way classification of a region's renewable profile."""

    WIND = "majorly wind"
    SOLAR = "majorly solar"
    HYBRID = "hybrid"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class WindProfile:
    """Parameters of a region's synthetic wind generation process.

    Attributes
    ----------
    capacity_mw:
        Grid-wide installed wind nameplate capacity.
    mean_capacity_factor:
        Long-run average output as a fraction of nameplate.
    synoptic_hours:
        Autocorrelation time of the weather process; larger values produce
        multi-day windy/calm regimes.
    volatility:
        Innovation scale of the AR(1) weather process; drives day-to-day
        spread of daily totals.
    calm_bias:
        Shifts the weather process toward the power curve's flat low end,
        creating near-zero-output days (the paper's deep valleys).
    winter_boost:
        Seasonal amplitude; positive means windier winters.
    """

    capacity_mw: float
    mean_capacity_factor: float = 0.35
    synoptic_hours: float = 48.0
    volatility: float = 0.30
    calm_bias: float = 0.0
    winter_boost: float = 0.15


@dataclass(frozen=True)
class SolarProfile:
    """Parameters of a region's synthetic solar generation process.

    Attributes
    ----------
    capacity_mw:
        Grid-wide installed solar nameplate capacity.
    latitude_deg:
        Site latitude; sets day length and seasonal insolation swing.
    mean_clearness:
        Average atmospheric clearness index (1.0 = always clear sky).
    clearness_volatility:
        Day-to-day spread of the clearness index (cloudy spells).
    """

    capacity_mw: float
    latitude_deg: float
    mean_clearness: float = 0.65
    clearness_volatility: float = 0.20


@dataclass(frozen=True)
class DispatchProfile:
    """How the rest of a BA's grid fills demand left by wind and solar.

    Fractions are of average system demand; nuclear runs flat, hydro follows
    a mild seasonal shape, and the fossil residual splits between gas and
    coal by ``coal_share``.
    """

    nuclear_fraction: float = 0.15
    hydro_fraction: float = 0.05
    coal_share: float = 0.30
    other_fraction: float = 0.02


@dataclass(frozen=True)
class BalancingAuthority:
    """One EIA balancing authority and its synthetic-grid parameters."""

    code: str
    name: str
    renewable_class: RenewableClass
    avg_demand_mw: float
    wind: WindProfile
    solar: SolarProfile
    dispatch: DispatchProfile = DispatchProfile()

    def __post_init__(self) -> None:
        if self.avg_demand_mw <= 0:
            raise ValueError(f"{self.code}: avg_demand_mw must be positive")
        if self.wind.capacity_mw < 0 or self.solar.capacity_mw < 0:
            raise ValueError(f"{self.code}: capacities must be non-negative")


#: Registry of the paper's ten Table-1 balancing authorities plus CISO.
#: Demand scales are loosely modelled on each BA's real size; renewable
#: capacities are set so each grid's renewable share and class match §3.2.
BALANCING_AUTHORITIES: Dict[str, BalancingAuthority] = {
    ba.code: ba
    for ba in (
        BalancingAuthority(
            code="BPAT",
            name="Bonneville Power Administration (Oregon)",
            renewable_class=RenewableClass.WIND,
            avg_demand_mw=6500.0,
            wind=WindProfile(
                capacity_mw=2800.0,
                mean_capacity_factor=0.30,
                synoptic_hours=60.0,
                volatility=0.42,
                calm_bias=0.16,
                winter_boost=0.10,
            ),
            solar=SolarProfile(capacity_mw=40.0, latitude_deg=44.3),
            dispatch=DispatchProfile(nuclear_fraction=0.08, hydro_fraction=0.45, coal_share=0.10),
        ),
        BalancingAuthority(
            code="MISO",
            name="Midcontinent ISO (Iowa)",
            renewable_class=RenewableClass.WIND,
            avg_demand_mw=75000.0,
            wind=WindProfile(
                capacity_mw=28000.0,
                mean_capacity_factor=0.38,
                synoptic_hours=42.0,
                volatility=0.26,
                calm_bias=0.10,
                winter_boost=0.20,
            ),
            solar=SolarProfile(capacity_mw=1500.0, latitude_deg=41.6),
            dispatch=DispatchProfile(nuclear_fraction=0.14, hydro_fraction=0.02, coal_share=0.45),
        ),
        BalancingAuthority(
            code="SWPP",
            name="Southwest Power Pool (Nebraska)",
            renewable_class=RenewableClass.WIND,
            avg_demand_mw=30000.0,
            wind=WindProfile(
                capacity_mw=27000.0,
                mean_capacity_factor=0.41,
                synoptic_hours=40.0,
                volatility=0.24,
                calm_bias=0.08,
                winter_boost=0.18,
            ),
            solar=SolarProfile(capacity_mw=300.0, latitude_deg=41.2),
            dispatch=DispatchProfile(nuclear_fraction=0.08, hydro_fraction=0.04, coal_share=0.40),
        ),
        BalancingAuthority(
            code="DUK",
            name="Duke Energy Carolinas (North Carolina)",
            renewable_class=RenewableClass.SOLAR,
            avg_demand_mw=9500.0,
            wind=WindProfile(capacity_mw=0.0, mean_capacity_factor=0.30),
            solar=SolarProfile(
                capacity_mw=3200.0,
                latitude_deg=35.3,
                mean_clearness=0.62,
                clearness_volatility=0.22,
            ),
            dispatch=DispatchProfile(nuclear_fraction=0.45, hydro_fraction=0.03, coal_share=0.25),
        ),
        BalancingAuthority(
            code="SOCO",
            name="Southern Company (Georgia)",
            renewable_class=RenewableClass.SOLAR,
            avg_demand_mw=25000.0,
            wind=WindProfile(capacity_mw=0.0, mean_capacity_factor=0.30),
            solar=SolarProfile(
                capacity_mw=4500.0,
                latitude_deg=33.6,
                mean_clearness=0.64,
                clearness_volatility=0.20,
            ),
            dispatch=DispatchProfile(nuclear_fraction=0.18, hydro_fraction=0.03, coal_share=0.22),
        ),
        BalancingAuthority(
            code="TVA",
            name="Tennessee Valley Authority (Tennessee/Alabama)",
            renewable_class=RenewableClass.SOLAR,
            avg_demand_mw=18000.0,
            wind=WindProfile(capacity_mw=0.0, mean_capacity_factor=0.30),
            solar=SolarProfile(
                capacity_mw=2600.0,
                latitude_deg=36.2,
                mean_clearness=0.60,
                clearness_volatility=0.22,
            ),
            dispatch=DispatchProfile(nuclear_fraction=0.40, hydro_fraction=0.09, coal_share=0.20),
        ),
        BalancingAuthority(
            code="ERCO",
            name="ERCOT (Texas)",
            renewable_class=RenewableClass.HYBRID,
            avg_demand_mw=46000.0,
            wind=WindProfile(
                capacity_mw=25000.0,
                mean_capacity_factor=0.36,
                synoptic_hours=38.0,
                volatility=0.25,
                calm_bias=0.10,
                winter_boost=0.05,
            ),
            solar=SolarProfile(
                capacity_mw=7500.0,
                latitude_deg=31.0,
                mean_clearness=0.70,
                clearness_volatility=0.15,
            ),
            dispatch=DispatchProfile(nuclear_fraction=0.11, hydro_fraction=0.01, coal_share=0.30),
        ),
        BalancingAuthority(
            code="PACE",
            name="PacifiCorp East (Utah)",
            renewable_class=RenewableClass.HYBRID,
            avg_demand_mw=7200.0,
            wind=WindProfile(
                capacity_mw=2300.0,
                mean_capacity_factor=0.33,
                synoptic_hours=45.0,
                volatility=0.28,
                calm_bias=0.12,
                winter_boost=0.12,
            ),
            solar=SolarProfile(
                capacity_mw=1700.0,
                latitude_deg=40.4,
                mean_clearness=0.72,
                clearness_volatility=0.14,
            ),
            dispatch=DispatchProfile(nuclear_fraction=0.00, hydro_fraction=0.04, coal_share=0.60),
        ),
        BalancingAuthority(
            code="PJM",
            name="PJM Interconnection (Illinois/Virginia/Ohio)",
            renewable_class=RenewableClass.HYBRID,
            avg_demand_mw=88000.0,
            wind=WindProfile(
                capacity_mw=11000.0,
                mean_capacity_factor=0.32,
                synoptic_hours=46.0,
                volatility=0.28,
                calm_bias=0.12,
                winter_boost=0.18,
            ),
            solar=SolarProfile(
                capacity_mw=6000.0,
                latitude_deg=39.5,
                mean_clearness=0.60,
                clearness_volatility=0.22,
            ),
            dispatch=DispatchProfile(nuclear_fraction=0.34, hydro_fraction=0.02, coal_share=0.30),
        ),
        BalancingAuthority(
            code="PNM",
            name="Public Service Company of New Mexico",
            renewable_class=RenewableClass.HYBRID,
            avg_demand_mw=2000.0,
            wind=WindProfile(
                capacity_mw=900.0,
                mean_capacity_factor=0.37,
                synoptic_hours=40.0,
                volatility=0.26,
                calm_bias=0.10,
                winter_boost=0.08,
            ),
            solar=SolarProfile(
                capacity_mw=750.0,
                latitude_deg=34.7,
                mean_clearness=0.78,
                clearness_volatility=0.10,
            ),
            dispatch=DispatchProfile(nuclear_fraction=0.25, hydro_fraction=0.00, coal_share=0.35),
        ),
        BalancingAuthority(
            code="CISO",
            name="California ISO",
            renewable_class=RenewableClass.HYBRID,
            avg_demand_mw=20000.0,
            wind=WindProfile(
                capacity_mw=6000.0,
                mean_capacity_factor=0.28,
                synoptic_hours=36.0,
                volatility=0.30,
                calm_bias=0.15,
                winter_boost=-0.10,
            ),
            solar=SolarProfile(
                capacity_mw=20000.0,
                latitude_deg=36.8,
                mean_clearness=0.78,
                clearness_volatility=0.10,
            ),
            dispatch=DispatchProfile(nuclear_fraction=0.08, hydro_fraction=0.15, coal_share=0.02),
        ),
    )
}

#: BA codes appearing in Table 1 (CISO hosts no Meta datacenter in the study).
TABLE1_AUTHORITY_CODES: Tuple[str, ...] = (
    "SWPP", "BPAT", "PACE", "PNM", "ERCO", "PJM", "DUK", "MISO", "SOCO", "TVA",
)


def get_authority(code: str) -> BalancingAuthority:
    """Look up a balancing authority by its EIA code.

    Raises
    ------
    KeyError
        With the list of known codes if ``code`` is unknown.
    """
    try:
        return BALANCING_AUTHORITIES[code]
    except KeyError:
        known = ", ".join(sorted(BALANCING_AUTHORITIES))
        raise KeyError(f"unknown balancing authority {code!r}; known: {known}") from None
