"""Projecting renewable supply from investment levels (paper §4.1).

Carbon Explorer estimates the hourly output of a datacenter's renewable
investment by linearly scaling the local grid's observed generation trace:

    "It takes the maximum generated solar and wind power throughout the year
    as the maximum capacity of the local grid.  Then, the hourly generation
    data is linearly scaled to the desired renewable investment capacity."

So a 100 MW wind investment on a grid whose wind fleet peaked at 2,800 MW is
assumed to produce ``100/2800`` of the grid's wind trace in every hour.  This
captures the region's weather exactly while abstracting away individual farm
siting.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..timeseries import HourlySeries
from .dataset import GridDataset
from ..timeseries.stats import is_exact_zero


@dataclass(frozen=True)
class RenewableInvestment:
    """A datacenter operator's renewable purchase in one region.

    Attributes
    ----------
    solar_mw:
        Nameplate solar capacity purchased, MW.
    wind_mw:
        Nameplate wind capacity purchased, MW.
    """

    solar_mw: float = 0.0
    wind_mw: float = 0.0

    def __post_init__(self) -> None:
        if self.solar_mw < 0 or self.wind_mw < 0:
            raise ValueError(
                f"investments must be non-negative, got solar={self.solar_mw}, "
                f"wind={self.wind_mw}"
            )

    @property
    def total_mw(self) -> float:
        """Combined nameplate capacity, MW."""
        return self.solar_mw + self.wind_mw

    def __add__(self, other: "RenewableInvestment") -> "RenewableInvestment":
        return RenewableInvestment(
            solar_mw=self.solar_mw + other.solar_mw,
            wind_mw=self.wind_mw + other.wind_mw,
        )

    def scaled(self, factor: float) -> "RenewableInvestment":
        """Both capacities multiplied by ``factor`` (must be non-negative)."""
        if factor < 0:
            raise ValueError(f"factor must be non-negative, got {factor}")
        return RenewableInvestment(self.solar_mw * factor, self.wind_mw * factor)


def scale_trace_to_capacity(trace: HourlySeries, capacity_mw: float) -> HourlySeries:
    """Scale a grid generation trace to a given nameplate investment.

    Implements the paper's rule: the trace's yearly maximum is taken as the
    grid fleet's capacity, and the whole trace is scaled so its maximum
    equals ``capacity_mw``.

    Raises
    ------
    ValueError
        If ``capacity_mw`` is positive but the region has no generation of
        this type at all (an all-zero trace carries no weather information
        to scale).
    """
    if capacity_mw < 0:
        raise ValueError(f"capacity must be non-negative, got {capacity_mw}")
    if is_exact_zero(capacity_mw):
        return HourlySeries.zeros(trace.calendar, name=trace.name)
    return trace.scale_to_peak(capacity_mw)


def projected_supply(grid: GridDataset, investment: RenewableInvestment) -> HourlySeries:
    """Hourly renewable supply (MW) from an investment in a region.

    Scales the grid's wind and solar traces independently to the purchased
    capacities and sums them.  A positive investment in a resource the
    region's grid does not generate (e.g. wind in a solar-only BA) raises,
    matching the paper's assumption that operators buy into the local grid's
    existing resource types.
    """
    calendar = grid.calendar
    supply = HourlySeries.zeros(calendar, name="renewable supply")
    if investment.solar_mw > 0.0:
        supply = supply + scale_trace_to_capacity(grid.solar, investment.solar_mw)
    if investment.wind_mw > 0.0:
        supply = supply + scale_trace_to_capacity(grid.wind, investment.wind_mw)
    return supply.with_name("renewable supply")
