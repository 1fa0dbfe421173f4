"""Peak-shaving battery operation (paper §2 / related work §6).

Today's datacenters "deploy batteries to ensure system resilience and shave
power peaks" — the battery caps the facility's *grid draw* rather than
chasing carbon.  This module implements that conventional policy so it can
be compared against the paper's carbon-driven policy
(:mod:`repro.battery.simulator`): same pack, different objective, different
carbon outcome (``bench_peak_shaving.py``).

Policy: whenever net grid demand (load minus renewables) would exceed a
threshold, the battery discharges to hold the draw at the threshold; below
the threshold it recharges from the grid — as gently as possible while
staying ready for the next peak.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..timeseries import HourlySeries
from .clc import Battery, BatterySpec
from ..timeseries.stats import is_exact_zero


@dataclass(frozen=True)
class PeakShavingResult:
    """Outcome of one year of peak-shaving operation.

    Attributes
    ----------
    spec:
        The battery operated.
    threshold_mw:
        Grid-draw cap the policy defended.
    grid_import:
        Hourly grid draw after shaving, MW.
    unshaved_mwh:
        Energy above the threshold the battery failed to absorb (the pack
        ran dry during a long peak).
    charge_level:
        Hourly energy content, MWh.
    discharged_mwh / charged_mwh:
        Meter totals.
    """

    spec: BatterySpec
    threshold_mw: float
    grid_import: HourlySeries
    unshaved_mwh: float
    charge_level: HourlySeries
    discharged_mwh: float
    charged_mwh: float

    def shaved_successfully(self) -> bool:
        """Whether the cap held in every hour."""
        return is_exact_zero(self.unshaved_mwh)


def simulate_peak_shaving(
    demand: HourlySeries,
    supply: HourlySeries,
    spec: BatterySpec,
    threshold_mw: float,
    recharge_rate_fraction: float = 0.25,
) -> PeakShavingResult:
    """Operate a battery to cap grid draw at ``threshold_mw``.

    Per hour: net demand is load minus renewable supply (renewables always
    serve first).  Above the threshold the battery discharges the excess
    (up to its limits; the remainder is *unshaved* and drawn anyway).
    Below the threshold the battery recharges from the grid, limited to
    ``recharge_rate_fraction`` of its C-rate and never pushing the draw
    over the threshold.

    Parameters
    ----------
    demand, supply:
        Aligned hourly power traces, MW.
    spec:
        The pack to operate.
    threshold_mw:
        Grid-draw cap to defend (must be positive).
    recharge_rate_fraction:
        Gentleness of grid recharge, in (0, 1].
    """
    if demand.calendar != supply.calendar:
        raise ValueError("demand and supply must share a calendar")
    if threshold_mw <= 0:
        raise ValueError(f"threshold must be positive, got {threshold_mw}")
    if not 0.0 < recharge_rate_fraction <= 1.0:
        raise ValueError(
            f"recharge_rate_fraction must be in (0, 1], got {recharge_rate_fraction}"
        )

    calendar = demand.calendar
    battery = Battery(spec, initial_soc=1.0)
    n_hours = calendar.n_hours
    demand_values = demand.values
    supply_values = supply.values

    grid_import = np.zeros(n_hours)
    charge_level = np.zeros(n_hours)
    unshaved = 0.0
    recharge_cap = spec.max_charge_mw * recharge_rate_fraction

    for hour in range(n_hours):
        net = max(demand_values[hour] - supply_values[hour], 0.0)
        if net > threshold_mw:
            excess = net - threshold_mw
            delivered = battery.discharge(excess)
            remainder = excess - delivered
            grid_import[hour] = threshold_mw + remainder
            unshaved += remainder
        else:
            headroom = threshold_mw - net
            absorbed = battery.charge(min(headroom, recharge_cap))
            grid_import[hour] = net + absorbed
        charge_level[hour] = battery.energy_mwh

    return PeakShavingResult(
        spec=spec,
        threshold_mw=threshold_mw,
        grid_import=HourlySeries(grid_import, calendar, name="grid import"),
        unshaved_mwh=unshaved,
        charge_level=HourlySeries(charge_level, calendar, name="charge level"),
        discharged_mwh=battery.discharged_mwh,
        charged_mwh=battery.charged_mwh,
    )


def minimum_shavable_threshold(
    demand: HourlySeries,
    supply: HourlySeries,
    spec: BatterySpec,
    tolerance_mw: float = 0.01,
) -> float:
    """Lowest grid-draw cap this pack can defend all year.

    Bisects the threshold between zero and the unshaved peak; the result is
    the provisioning number a peak-shaving deployment buys the battery for.
    """
    if tolerance_mw <= 0:
        raise ValueError(f"tolerance must be positive, got {tolerance_mw}")
    net_peak = float(np.clip(demand.values - supply.values, 0.0, None).max())
    if is_exact_zero(net_peak):
        raise ValueError("net demand never exceeds zero; nothing to shave")

    def holds(threshold: float) -> bool:
        return simulate_peak_shaving(demand, supply, spec, threshold).shaved_successfully()

    low, high = 0.0, net_peak
    if not holds(high):
        raise AssertionError("threshold at the unshaved peak must always hold")
    while high - low > tolerance_mw:
        mid = (low + high) / 2.0
        if mid <= 0.0:
            break
        if holds(mid):
            high = mid
        else:
            low = mid
    return high
