"""Calibration fingerprints of the synthetic grid substrate.

DESIGN.md claims the synthetic generator reproduces the *shape statistics*
the paper's conclusions rest on.  This module computes those fingerprints
for any balancing authority so the claim is checkable at a glance (and so
``bench_calibration.py`` can print the full scorecard):

* wind mean capacity factor vs its profile target;
* day-to-day volatility (CV of daily renewable totals);
* best-10-days ratio (§3.2 quotes ~2.5x for BPAT);
* near-zero wind days (the deep valleys driving battery sizing);
* renewable share of total generation;
* solar generation confined to daylight.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..timeseries import best_days_ratio, coefficient_of_variation, worst_days_ratio
from .dataset import GridDataset, generate_grid_dataset

#: Daily wind output (fraction of nameplate energy) below which a day counts
#: as a near-zero "valley" day.
NEAR_ZERO_DAY_THRESHOLD = 0.02


@dataclass(frozen=True)
class CalibrationFingerprint:
    """Shape statistics of one balancing authority's synthetic year.

    All fields are derived from the generated data; ``wind_cf_target`` is
    the profile's configured capacity factor for comparison.
    """

    authority_code: str
    renewable_class: str
    renewable_share: float
    wind_capacity_factor: float
    wind_cf_target: float
    daily_volatility_cv: float
    best10_ratio: float
    worst10_ratio: float
    near_zero_wind_days: int
    solar_night_leak_mwh: float


def fingerprint(grid: GridDataset) -> CalibrationFingerprint:
    """Compute the calibration fingerprint of a grid year."""
    authority = grid.authority
    renewables = grid.renewables()

    wind_capacity = authority.wind.capacity_mw
    if wind_capacity > 0.0:
        wind_cf = grid.wind.mean() / wind_capacity
        daily_wind = grid.wind.daily_totals() / (wind_capacity * 24.0)
        near_zero = int((daily_wind < NEAR_ZERO_DAY_THRESHOLD).sum())
    else:
        wind_cf = 0.0
        near_zero = 0

    if renewables.total() > 0.0:
        cv = coefficient_of_variation(renewables.daily_totals())
        best10 = best_days_ratio(renewables, 10)
        worst10 = worst_days_ratio(renewables, 10)
    else:
        cv = best10 = worst10 = 0.0

    # Solar must be zero at local midnight hours; measure any leak.
    solar_days = grid.solar.values.reshape(grid.calendar.n_days, 24)
    night_leak = float(solar_days[:, [0, 1, 2, 23]].sum())

    return CalibrationFingerprint(
        authority_code=authority.code,
        renewable_class=authority.renewable_class.value,
        renewable_share=grid.renewable_share(),
        wind_capacity_factor=wind_cf,
        wind_cf_target=authority.wind.mean_capacity_factor if wind_capacity else 0.0,
        daily_volatility_cv=cv,
        best10_ratio=best10,
        worst10_ratio=worst10,
        near_zero_wind_days=near_zero,
        solar_night_leak_mwh=night_leak,
    )


def fingerprint_all(
    codes: Tuple[str, ...],
    year: int = 2020,
    seed: int = 0,
) -> Tuple[CalibrationFingerprint, ...]:
    """Fingerprints for a set of balancing authorities, in given order."""
    if not codes:
        raise ValueError("need at least one authority code")
    return tuple(
        fingerprint(generate_grid_dataset(code, year=year, seed=seed)) for code in codes
    )
