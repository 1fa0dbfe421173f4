"""Renewable curtailment modelling (paper Figure 4).

Figure 4 shows wind and solar curtailments on the California grid growing
steadily from 2015 to 2021 as renewable capacity expanded, reaching ~6% of
renewable generation in 2021.  We reproduce the mechanism rather than the
archival record: for each historical year we scale CISO's synthetic wind and
solar fleets by that year's relative build-out, re-run the merit-order
dispatch, and measure what fraction of each resource had to be shed.

Because curtailment happens in midday oversupply hours — when solar
dominates the renewable mix — solar's curtailment fraction rises faster than
wind's, exactly the asymmetry the paper's figure shows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..timeseries import YearCalendar
from .authorities import get_authority
from .dataset import GridDataset, dispatch
from .synthetic import (
    hydro_generation,
    seed_for,
    solar_generation,
    system_demand,
    wind_generation,
)

#: Relative size of the CISO wind+solar fleet per historical year, normalized
#: to 2020.  California's renewable build-out roughly doubled over the Fig. 4
#: window; wind capacity was nearly flat while solar grew steeply.
CISO_BUILDOUT_BY_YEAR: Dict[int, Tuple[float, float]] = {
    # year: (solar factor, wind factor)
    2015: (0.45, 0.95),
    2016: (0.55, 0.95),
    2017: (0.65, 0.96),
    2018: (0.75, 0.97),
    2019: (0.85, 0.98),
    2020: (1.00, 1.00),
    2021: (1.15, 1.02),
}


@dataclass(frozen=True)
class CurtailmentRecord:
    """Curtailment outcome for one simulated year.

    Attributes
    ----------
    year:
        Historical year simulated.
    solar_curtailed_fraction:
        Curtailed solar energy / potential solar energy.
    wind_curtailed_fraction:
        Curtailed wind energy / potential wind energy.
    total_curtailed_fraction:
        Curtailed renewable energy / potential renewable energy — the
        statistic the paper quotes (~6% in 2021).
    renewable_share:
        Delivered wind+solar share of total generation that year.
    """

    year: int
    solar_curtailed_fraction: float
    wind_curtailed_fraction: float
    total_curtailed_fraction: float
    renewable_share: float


def _dispatch_with_split_curtailment(
    authority_code: str,
    solar_factor: float,
    wind_factor: float,
    weather_year: int,
    seed: int,
) -> Tuple[GridDataset, float, float, float, float]:
    """Dispatch a scaled fleet and attribute curtailment per resource."""
    authority = get_authority(authority_code)
    calendar = YearCalendar(weather_year)
    rng = np.random.default_rng(seed_for(authority_code, weather_year, seed))
    wind = wind_generation(authority.wind, calendar, rng) * wind_factor
    solar = solar_generation(authority.solar, calendar, rng) * solar_factor
    demand = system_demand(authority, calendar, rng)
    hydro = hydro_generation(authority, calendar)
    grid = dispatch(authority, wind, solar, demand, hydro)

    potential_solar = solar.total()
    potential_wind = wind.total()
    delivered_solar = grid.solar.total()
    delivered_wind = grid.wind.total()
    curtailed_solar = max(potential_solar - delivered_solar, 0.0)
    curtailed_wind = max(potential_wind - delivered_wind, 0.0)
    return grid, potential_solar, potential_wind, curtailed_solar, curtailed_wind


def simulate_historical_curtailment(
    authority_code: str = "CISO",
    buildout: Optional[Dict[int, Tuple[float, float]]] = None,
    weather_year: int = 2020,
    seed: int = 0,
) -> Tuple[CurtailmentRecord, ...]:
    """Reproduce the Figure 4 curtailment trend for a region.

    Each historical year reuses the same weather year (so the trend isolates
    the effect of fleet growth, like the paper's multi-year capacity story)
    but scales the wind and solar fleets by that year's build-out factors.

    Returns one :class:`CurtailmentRecord` per year, in chronological order.
    """
    if buildout is None:
        buildout = CISO_BUILDOUT_BY_YEAR
    if not buildout:
        raise ValueError("buildout mapping must not be empty")

    records = []
    for year in sorted(buildout):
        solar_factor, wind_factor = buildout[year]
        if solar_factor < 0 or wind_factor < 0:
            raise ValueError(f"build-out factors must be non-negative ({year})")
        grid, pot_solar, pot_wind, cur_solar, cur_wind = _dispatch_with_split_curtailment(
            authority_code, solar_factor, wind_factor, weather_year, seed
        )
        pot_total = pot_solar + pot_wind
        records.append(
            CurtailmentRecord(
                year=year,
                solar_curtailed_fraction=(cur_solar / pot_solar) if pot_solar else 0.0,
                wind_curtailed_fraction=(cur_wind / pot_wind) if pot_wind else 0.0,
                total_curtailed_fraction=(
                    (cur_solar + cur_wind) / pot_total if pot_total else 0.0
                ),
                renewable_share=grid.renewable_share(),
            )
        )
    return tuple(records)


def curtailment_trendline(
    records: Tuple[CurtailmentRecord, ...]
) -> Tuple[float, float]:
    """Least-squares (slope, intercept) of total curtailment vs year.

    A positive slope is the quantitative statement of Figure 4's
    "curtailments have been increasing" trendline.
    """
    if len(records) < 2:
        raise ValueError("need at least two records to fit a trendline")
    years = np.array([r.year for r in records], dtype=float)
    fractions = np.array([r.total_curtailed_fraction for r in records])
    slope, intercept = np.polyfit(years, fractions, 1)
    return float(slope), float(intercept)
