"""The renewable-coverage metric (paper §4.1).

    "We define renewable coverage as the percentage of hours in the year
    where datacenter power (P_DC) is covered by renewable power (P_Ren):

        { 1 - sum_hour {P_DC - P_Ren} / sum_hour P_DC } x 100"

The sum in the numerator counts only hours of shortfall (a surplus cannot
"un-cover" another hour without storage), i.e. the positive part of the
hourly gap.  Coverage is therefore energy-weighted: it is the fraction of
annual datacenter energy met by renewable energy in the hour it was needed.
We also provide the literal fraction-of-hours variant for analyses that ask
"in how many hours was the datacenter fully green?".
"""

from __future__ import annotations

from ..timeseries import HourlySeries

import numpy as np
from ..timeseries.stats import is_exact_zero


def renewable_coverage(demand: HourlySeries, supply: HourlySeries) -> float:
    """Energy-weighted renewable coverage in [0, 1] (the paper's formula).

    Parameters
    ----------
    demand:
        Hourly datacenter power ``P_DC``, MW; must be positive somewhere.
    supply:
        Hourly renewable power ``P_Ren``, MW.
    """
    if demand.calendar != supply.calendar:
        raise ValueError("demand and supply must share a calendar")
    if demand.min() < 0 or supply.min() < 0:
        raise ValueError("demand and supply must be non-negative")
    total_demand = demand.total()
    if is_exact_zero(total_demand):
        raise ValueError("coverage undefined for zero total demand")
    shortfall = (demand - supply).positive_part().total()
    return 1.0 - shortfall / total_demand


def coverage_from_grid_import(demand: HourlySeries, grid_import: HourlySeries) -> float:
    """Coverage implied by a residual grid-import trace.

    After batteries and/or scheduling, the shortfall *is* the grid import;
    coverage is the complement of its share of demand.  With a zero-capacity
    battery and no scheduling this equals :func:`renewable_coverage` exactly.
    """
    if demand.calendar != grid_import.calendar:
        raise ValueError("demand and grid_import must share a calendar")
    return coverage_from_import_values(demand.values, grid_import.values)


def coverage_from_import_values(demand: np.ndarray, grid_import: np.ndarray) -> float:
    """The array core of :func:`coverage_from_grid_import`.

    Takes the hourly values directly, so sweep evaluation accounts raw
    kernel rows without wrapping them in :class:`HourlySeries`; a length
    check stands in for the wrapper's calendar comparison.
    """
    if demand.shape != grid_import.shape:
        raise ValueError("demand and grid_import must share a calendar")
    if grid_import.min() < 0:
        raise ValueError("grid import must be non-negative")
    return coverage_from_import_total(float(grid_import.sum()), float(demand.sum()))


def coverage_from_import_total(import_mwh: float, total_demand: float) -> float:
    """The scalar step of :func:`coverage_from_import_values`.

    Takes the annual totals, so sweep evaluation, which already holds
    the import total and a per-site demand total, reduces no array here.
    """
    if is_exact_zero(total_demand):
        raise ValueError("coverage undefined for zero total demand")
    coverage = 1.0 - import_mwh / total_demand
    if coverage < -1e-9:
        raise ValueError("grid import exceeds total demand: inconsistent traces")
    return max(coverage, 0.0)


def hourly_coverage_fraction(
    demand: HourlySeries, supply: HourlySeries, tolerance_mw: float = 1e-9
) -> float:
    """Fraction of hours in which supply fully covered demand.

    The literal "percentage of hours" reading of 24/7 coverage; stricter
    than the energy-weighted metric because a 1% shortfall voids the whole
    hour.
    """
    if demand.calendar != supply.calendar:
        raise ValueError("demand and supply must share a calendar")
    covered = np.count_nonzero(supply.values + tolerance_mw >= demand.values)
    return covered / demand.calendar.n_hours


def coverage_percent(coverage_fraction: float) -> float:
    """Convert a coverage fraction to the percentage the paper reports."""
    if not 0.0 <= coverage_fraction <= 1.0:
        raise ValueError(f"coverage fraction must be in [0, 1], got {coverage_fraction}")
    return coverage_fraction * 100.0
