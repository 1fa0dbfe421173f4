"""Time-of-use energy pricing from grid conditions (paper §3.2).

    "When supply exceeds demand, only generators with the lowest prices can
    supply energy to the grid.  Prices can be zero or even negative because
    inputs to wind/solar farms are free ... As a result, grids may offer
    lower time-of-use energy prices and incentivize datacenters to defer
    computation to periods of abundant renewable energy."

This module derives an hourly price signal from the grid's residual (fossil-
served) load: prices rise convexly with how deep the dispatch stack must
reach, fall toward zero as renewables crowd fossil out, and go *negative* in
curtailment hours (subsidized generators pay to stay online).  Because the
greedy scheduler ranks hours by any scalar signal, the price trace can be
passed wherever carbon intensity is expected — letting us ask the §3.2
question quantitatively: *do price signals steer the scheduler the same way
carbon signals do?*  (``bench_pricing.py`` answers: mostly, but not always —
nuclear-heavy cheap hours are clean, coal-heavy cheap hours are not.)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..timeseries import HourlySeries
from .dataset import GridDataset
from ..timeseries.stats import is_exact_zero


@dataclass(frozen=True)
class PriceModel:
    """Parameters of the residual-load price curve.

    Attributes
    ----------
    base_price:
        Price ($/MWh) when the fossil fleet is idle.
    slope:
        Price added per unit of normalized residual load.
    convexity:
        Exponent of the residual-load term; >1 makes scarcity pricing
        super-linear (peaker plants are expensive).
    curtailment_price:
        Price during curtailment hours (typically negative).
    """

    base_price: float = 15.0
    slope: float = 70.0
    convexity: float = 1.6
    curtailment_price: float = -5.0

    def __post_init__(self) -> None:
        if self.slope < 0:
            raise ValueError(f"slope must be non-negative, got {self.slope}")
        if self.convexity < 1.0:
            raise ValueError(f"convexity must be >= 1, got {self.convexity}")


def hourly_prices(grid: GridDataset, model: PriceModel = PriceModel()) -> HourlySeries:
    """Hourly time-of-use energy price ($/MWh) for a grid year.

    The residual load is the fossil-served share of demand, normalized by
    its yearly maximum; curtailment hours override to the (negative)
    curtailment price.
    """
    from .sources import EnergySource

    fossil = (
        grid.source(EnergySource.NATURAL_GAS).values
        + grid.source(EnergySource.COAL).values
        + grid.source(EnergySource.OIL).values
    )
    peak = fossil.max()
    if peak <= 0.0:
        normalized = np.zeros_like(fossil)
    else:
        normalized = fossil / peak
    prices = model.base_price + model.slope * normalized**model.convexity
    curtailing = grid.curtailed.values > 1e-9
    prices = np.where(curtailing, model.curtailment_price, prices)
    return HourlySeries(prices, grid.calendar, name="energy price")


def price_carbon_alignment(grid: GridDataset, model: PriceModel = PriceModel()) -> float:
    """Rank correlation between hourly price and hourly carbon intensity.

    1.0 means "scheduling by price is scheduling by carbon"; values well
    below 1 flag grids where cheap hours are dirty (coal baseload) and a
    price-chasing scheduler would mis-shift work.

    Uses Spearman (rank) correlation because the scheduler only consumes
    the *ordering* of hours, not the magnitudes.
    """
    prices = hourly_prices(grid, model).values
    intensity = grid.carbon_intensity_g_per_kwh().values

    def ranks(values: np.ndarray) -> np.ndarray:
        order = values.argsort(kind="mergesort")
        out = np.empty_like(order, dtype=float)
        out[order] = np.arange(values.size)
        return out

    rp, ri = ranks(prices), ranks(intensity)
    rp -= rp.mean()
    ri -= ri.mean()
    denom = np.sqrt((rp**2).sum() * (ri**2).sum())
    if is_exact_zero(denom):
        raise ValueError("alignment undefined: a constant signal has no ranking")
    return float((rp * ri).sum() / denom)
