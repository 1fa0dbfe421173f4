"""Operational-carbon accounting and supply scenarios (paper §3.2, Fig. 6).

Operational carbon is what the datacenter emits by consuming energy.  Under
the paper's model, energy covered by the datacenter's own renewable
investment (directly, via battery, or via shifted work) is carbon-free;
every remaining kWh is imported from the grid at the grid's *hourly* carbon
intensity.

Figure 6 contrasts three supply scenarios by their hourly intensity:

* **Grid Mix** — no PPAs; every kWh carries the grid's intensity.
* **Net Zero** — renewable credits cover consumption annually, but hourly
  the datacenter still runs on grid energy whenever its renewable supply
  falls short.
* **24/7 Carbon-Free** — storage and scheduling close (most of) the hourly
  gap, driving intensity toward zero in every hour.
"""

from __future__ import annotations

from enum import Enum, unique
from typing import Optional

import numpy as np

from ..timeseries import HourlySeries

_KWH_PER_MWH = 1000.0
_G_PER_TON = 1e6


@unique
class SupplyScenario(Enum):
    """The three datacenter energy-supply scenarios of Figure 6."""

    GRID_MIX = "grid mix"
    NET_ZERO = "net zero"
    CARBON_FREE_247 = "24/7 carbon-free"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


def operational_carbon_tons(
    grid_import: HourlySeries, grid_intensity: HourlySeries
) -> float:
    """Annual operational carbon (tons CO2eq) of hourly grid imports.

    ``grid_import`` is in MW (== MWh per hourly step); ``grid_intensity`` in
    gCO2eq/kWh.  MWh x 1000 kWh/MWh x g/kWh = grams; divide to tons.
    """
    if grid_import.calendar != grid_intensity.calendar:
        raise ValueError("grid_import and grid_intensity must share a calendar")
    return operational_carbon_tons_values(grid_import.values, grid_intensity.values)


def operational_carbon_tons_values(
    grid_import: np.ndarray, grid_intensity: np.ndarray
) -> float:
    """The array core of :func:`operational_carbon_tons`.

    Takes the hourly values directly, so sweep evaluation accounts raw
    kernel rows without wrapping them in :class:`HourlySeries`; a length
    check stands in for the wrapper's calendar comparison.
    """
    if grid_import.shape != grid_intensity.shape:
        raise ValueError("grid_import and grid_intensity must share a calendar")
    if grid_import.min() < 0:
        raise ValueError("grid imports must be non-negative")
    grams = float((grid_import * _KWH_PER_MWH * grid_intensity).sum())
    return grams / _G_PER_TON


def effective_intensity(
    demand: HourlySeries,
    grid_import: HourlySeries,
    grid_intensity: HourlySeries,
) -> HourlySeries:
    """Hourly carbon intensity of the energy the datacenter consumed.

    For each hour the datacenter used ``demand`` MWh, of which
    ``grid_import`` came from the grid at ``grid_intensity`` and the rest
    was carbon-free renewable/battery energy; the blend is the effective
    intensity of the hour's consumption (a Fig. 6 series).
    """
    if demand.calendar != grid_import.calendar or demand.calendar != grid_intensity.calendar:
        raise ValueError("all series must share a calendar")
    if np.any(grid_import.values > demand.values + 1e-9):
        raise ValueError("grid import exceeds demand in some hour")
    if np.any(demand.values <= 0.0):
        raise ValueError("demand must be strictly positive in every hour")
    blend = grid_import.values / demand.values * grid_intensity.values
    return HourlySeries(blend, demand.calendar, name="effective intensity")


def scenario_intensity(
    scenario: SupplyScenario,
    demand: HourlySeries,
    renewable_supply: HourlySeries,
    grid_intensity: HourlySeries,
    residual_import: Optional[HourlySeries] = None,
) -> HourlySeries:
    """Hourly effective intensity for one Figure 6 scenario.

    Parameters
    ----------
    scenario:
        Which supply scenario to evaluate.
    demand:
        Datacenter power, MW.
    renewable_supply:
        Hourly output of the datacenter's renewable investment, MW
        (ignored for ``GRID_MIX``).
    grid_intensity:
        Grid hourly carbon intensity, gCO2eq/kWh.
    residual_import:
        For ``CARBON_FREE_247``: grid imports remaining after batteries and
        scheduling (from the combined simulation).  Required for that
        scenario, unused otherwise.
    """
    if scenario is SupplyScenario.GRID_MIX:
        return grid_intensity.with_name("grid mix intensity")
    if scenario is SupplyScenario.NET_ZERO:
        shortfall = (demand - renewable_supply).positive_part()
        return effective_intensity(demand, shortfall.minimum(demand), grid_intensity).with_name(
            "net zero intensity"
        )
    if scenario is SupplyScenario.CARBON_FREE_247:
        if residual_import is None:
            raise ValueError(
                "CARBON_FREE_247 needs the residual_import trace from the "
                "battery/scheduling simulation"
            )
        return effective_intensity(
            demand, residual_import.minimum(demand), grid_intensity
        ).with_name("24/7 intensity")
    raise AssertionError(f"unhandled scenario {scenario}")  # pragma: no cover
