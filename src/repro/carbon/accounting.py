"""Renewable energy credit (REC) and matching-score accounting (paper §3.2).

Power purchase agreements issue one renewable energy credit per MWh the
contracted farms generate.  *Net Zero* claims match credits against
consumption over a month or a year; *24/7 carbon-free* matching happens
hour by hour.  This module computes all three matching granularities so the
gap the paper highlights — "Annually, datacenters claim Net Zero ...
Hourly, however, datacenters continue to emit carbon" — can be quantified
for any demand/supply pair:

* :func:`annual_rec_balance` — the Net Zero ledger.
* :func:`monthly_matching` — per-month matched fraction (monthly PPAs).
* :func:`hourly_matching_score` — the 24/7 carbon-free energy (CFE) score,
  equal to the paper's renewable-coverage metric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..timeseries import MONTH_NAMES, HourlySeries
from ..timeseries.stats import is_exact_zero


@dataclass(frozen=True)
class RecBalance:
    """The annual renewable-energy-credit ledger.

    Attributes
    ----------
    generated_mwh:
        Credits issued: energy the contracted renewables generated.
    consumed_mwh:
        Energy the datacenter consumed.
    """

    generated_mwh: float
    consumed_mwh: float

    @property
    def matched_fraction(self) -> float:
        """Fraction of consumption covered by credits, capped at 1."""
        if is_exact_zero(self.consumed_mwh):
            raise ValueError("matched fraction undefined for zero consumption")
        return min(self.generated_mwh / self.consumed_mwh, 1.0)


def annual_rec_balance(demand: HourlySeries, supply: HourlySeries) -> RecBalance:
    """Annual Net Zero ledger for a demand/supply pair.

    Credits are fungible across the whole year: only totals matter.
    """
    _check(demand, supply)
    return RecBalance(generated_mwh=supply.total(), consumed_mwh=demand.total())


@dataclass(frozen=True)
class MonthlyMatch:
    """Matching outcome for one calendar month."""

    month: int
    generated_mwh: float
    consumed_mwh: float

    @property
    def matched_fraction(self) -> float:
        """Fraction of the month's consumption covered, capped at 1."""
        if is_exact_zero(self.consumed_mwh):
            return 1.0
        return min(self.generated_mwh / self.consumed_mwh, 1.0)

    @property
    def name(self) -> str:
        """Month name for reports."""
        return MONTH_NAMES[self.month - 1]


def monthly_matching(
    demand: HourlySeries, supply: HourlySeries
) -> Tuple[MonthlyMatch, ...]:
    """Per-month REC matching (credits fungible within each month only)."""
    _check(demand, supply)
    matches = []
    for month in range(1, 13):
        month_slice = demand.calendar.month_slice(month)
        matches.append(
            MonthlyMatch(
                month=month,
                generated_mwh=float(supply.values[month_slice].sum()),
                consumed_mwh=float(demand.values[month_slice].sum()),
            )
        )
    return tuple(matches)


def hourly_matching_score(demand: HourlySeries, supply: HourlySeries) -> float:
    """The 24/7 CFE score: fraction of consumption matched hour by hour.

    Equal to the paper's renewable-coverage metric — surplus in one hour
    cannot match another hour's consumption.
    """
    _check(demand, supply)
    total = demand.total()
    if is_exact_zero(total):
        raise ValueError("matching score undefined for zero consumption")
    matched = np.minimum(demand.values, supply.values).sum()
    return float(matched / total)


@dataclass(frozen=True)
class MatchingGap:
    """The paper's central observation, quantified: annual matching looks
    far better than hourly matching for the same investment.

    Attributes
    ----------
    annual_fraction:
        Consumption fraction matched with year-fungible credits.
    monthly_fraction:
        Consumption-weighted mean of per-month matched fractions.
    hourly_fraction:
        The 24/7 CFE score.
    """

    annual_fraction: float
    monthly_fraction: float
    hourly_fraction: float

    @property
    def net_zero_overstatement(self) -> float:
        """How much annual matching overstates hourly reality (points)."""
        return self.annual_fraction - self.hourly_fraction


def matching_gap(demand: HourlySeries, supply: HourlySeries) -> MatchingGap:
    """Compute all three matching granularities for one investment."""
    annual = annual_rec_balance(demand, supply).matched_fraction
    months = monthly_matching(demand, supply)
    total = sum(m.consumed_mwh for m in months)
    monthly = sum(m.matched_fraction * m.consumed_mwh for m in months) / total
    hourly = hourly_matching_score(demand, supply)
    return MatchingGap(
        annual_fraction=annual,
        monthly_fraction=monthly,
        hourly_fraction=hourly,
    )


def _check(demand: HourlySeries, supply: HourlySeries) -> None:
    if demand.calendar != supply.calendar:
        raise ValueError("demand and supply must share a calendar")
    if demand.min() < 0 or supply.min() < 0:
        raise ValueError("demand and supply must be non-negative")
