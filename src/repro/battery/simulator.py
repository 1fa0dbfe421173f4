"""Hourly battery operation against a renewable surplus/deficit profile.

§4.2: "Batteries will be charged when there is excess renewable supply ...
Batteries will be discharged to power the datacenter when there is a lack of
renewable supply."  This module runs that greedy policy hour by hour over a
year, honouring the C/L/C constraints, and reports the resulting grid
imports, residual surplus, and the charge-level trace behind Figure 16.

Design-space sweeps call this simulation thousands of times per region, so
the year loop itself lives in :mod:`repro.kernels.battery`: an object-free
kernel over raw numpy arrays with the spec constants hoisted out of the
loop (and a fully vectorized zero-capacity path).  This module validates
inputs, opens the tracing span, and wraps the kernel's arrays back into
:class:`HourlySeries` results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ..kernels.battery import (
    BatterySeed,
    battery_import_exceeds,
    battery_run,
    battery_run_seeded,
)
from ..obs import inc, span
from ..timeseries import Histogram, HourlySeries, histogram
from .clc import BatterySpec
from ..timeseries.stats import is_exact_zero


@dataclass(frozen=True)
class BatterySimResult:
    """Outcome of one year of greedy battery operation.

    Attributes
    ----------
    spec:
        The battery that was simulated.
    grid_import:
        Hourly power (MW) still drawn from the grid after discharging.
    surplus:
        Hourly renewable surplus (MW) remaining after charging (energy the
        datacenter's investment produced but could not use or store).
    charge_level:
        Hourly energy content (MWh) at the *end* of each hour.
    charged_mwh:
        Total energy absorbed over the year (at the meter, pre-loss).
    discharged_mwh:
        Total energy delivered over the year.
    """

    spec: BatterySpec
    grid_import: HourlySeries
    surplus: HourlySeries
    charge_level: HourlySeries
    charged_mwh: float
    discharged_mwh: float

    def equivalent_full_cycles(self) -> float:
        """Equivalent full cycles accumulated over the year."""
        usable = self.spec.usable_mwh
        if is_exact_zero(usable):
            return 0.0
        return self.discharged_mwh / usable

    def cycles_per_day(self) -> float:
        """Average equivalent cycles per day — the lifetime duty cycle."""
        return self.equivalent_full_cycles() / self.charge_level.calendar.n_days

    def state_of_charge(self) -> HourlySeries:
        """Charge level normalized to nameplate capacity (0..1)."""
        if is_exact_zero(self.spec.capacity_mwh):
            return HourlySeries.zeros(self.charge_level.calendar, name="soc")
        return (self.charge_level / self.spec.capacity_mwh).with_name("soc")

    def charge_level_histogram(self, n_bins: int = 10) -> Histogram:
        """Distribution of hourly state of charge — Figure 16.

        The paper observes that under the carbon-optimal configuration
        "batteries are often fully charged or fully discharged", i.e. the
        histogram is U-shaped with mass at both ends.
        """
        if is_exact_zero(self.spec.capacity_mwh):
            raise ValueError("charge-level histogram undefined for a zero-capacity battery")
        return histogram(self.state_of_charge().values, n_bins=n_bins)


def simulate_battery(
    demand: HourlySeries,
    supply: HourlySeries,
    spec: BatterySpec,
    initial_soc: float = 1.0,
    seed: Optional[BatterySeed] = None,
) -> BatterySimResult:
    """Run the greedy charge-on-surplus / discharge-on-deficit policy.

    For every hour: if renewable ``supply`` exceeds datacenter ``demand``,
    the surplus is offered to the battery (C-rate and headroom limits apply,
    leftovers are reported as ``surplus``); if supply falls short, the
    battery serves as much of the deficit as the C-rate, DoD floor, and
    efficiency allow, and the remainder is imported from the grid.

    Parameters
    ----------
    demand, supply:
        Aligned hourly power traces in MW.
    spec:
        Battery to operate.  A zero-capacity spec degenerates to the
        renewables-only case (grid import = positive part of the deficit).
    initial_soc:
        Starting state of charge within the DoD-usable band.
    seed:
        Optional :class:`~repro.kernels.battery.BatterySeed` built from
        *these exact* demand/supply traces (validated).  Sweeps walking
        the battery-capacity axis share one seed per investment, which
        fast-forwards the saturated stretches of the year loop; results
        are bitwise-identical with and without a seed.
    """
    if demand.calendar != supply.calendar:
        raise ValueError("demand and supply must share a calendar")
    if demand.min() < 0 or supply.min() < 0:
        raise ValueError("demand and supply must be non-negative")
    if not 0.0 <= initial_soc <= 1.0:
        raise ValueError(f"initial_soc must be in [0, 1], got {initial_soc}")
    if seed is not None and not seed.matches(demand.values, supply.values):
        raise ValueError("seed was built from different demand/supply traces")

    calendar = demand.calendar
    n_hours = calendar.n_hours
    floor = spec.floor_mwh
    kernel_kwargs = dict(
        capacity_mwh=spec.capacity_mwh,
        floor_mwh=floor,
        max_charge_mw=spec.max_charge_mw,
        max_discharge_mw=spec.max_discharge_mw,
        charge_efficiency=spec.chemistry.charge_efficiency,
        discharge_efficiency=spec.chemistry.discharge_efficiency,
        initial_energy_mwh=floor + initial_soc * (spec.capacity_mwh - floor),
    )

    with span("simulate_battery", capacity_mwh=spec.capacity_mwh, hours=n_hours):
        if seed is not None:
            inc("battery_runs_seeded")
            run = battery_run_seeded(seed, **kernel_kwargs)
        else:
            run = battery_run(demand.values, supply.values, **kernel_kwargs)

    inc("battery_sims")
    inc("battery_sim_hours", n_hours)
    return BatterySimResult(
        spec=spec,
        grid_import=HourlySeries(run.grid_import, calendar, name="grid import"),
        surplus=HourlySeries(run.surplus, calendar, name="surplus"),
        charge_level=HourlySeries(run.charge_level, calendar, name="charge level"),
        charged_mwh=run.charged_mwh,
        discharged_mwh=run.discharged_mwh,
    )


def capacity_for_full_coverage(
    demand: HourlySeries,
    supply: HourlySeries,
    max_hours_of_load: float = 48.0,
    tolerance_mwh: float = 1.0,
) -> float:
    """Smallest battery capacity (MWh) achieving zero grid import, if any.

    Binary-searches capacity between 0 and ``max_hours_of_load`` times the
    average demand (the paper reports capacities in "computational hours").
    Returns ``float('inf')`` when even the largest battery cannot reach 24/7
    coverage — e.g. when the year's total renewable supply is simply less
    than total demand, which no storage can fix.

    Used by the Figure 9 reproduction ("How much battery needs to be
    deployed for 24/7 renewable energy?").

    The search only ever asks "does this capacity still leave a deficit?",
    so it runs on :func:`repro.kernels.battery.battery_import_exceeds`
    rather than full simulations: the zero-capacity probe is the vectorized
    renewables-only arithmetic, every undersized midpoint exits its year
    loop at the first hour the cumulative deficit turns positive, and the
    exactly-zero-deficit midpoints that pay for a full year skip every
    stretch spent pinned at full capacity.  Every probe of one call shares
    one :class:`~repro.kernels.battery.BatterySeed`, built on the first.
    """
    if not math.isfinite(max_hours_of_load):
        raise ValueError(f"max_hours_of_load must be finite, got {max_hours_of_load}")
    if max_hours_of_load <= 0:
        raise ValueError(f"max_hours_of_load must be positive, got {max_hours_of_load}")
    if not math.isfinite(tolerance_mwh):
        raise ValueError(f"tolerance_mwh must be finite, got {tolerance_mwh}")
    if tolerance_mwh <= 0:
        raise ValueError(f"tolerance_mwh must be positive, got {tolerance_mwh}")
    if demand.calendar != supply.calendar:
        raise ValueError("demand and supply must share a calendar")
    if demand.min() < 0 or supply.min() < 0:
        raise ValueError("demand and supply must be non-negative")

    seed: Optional[BatterySeed] = None

    def has_deficit(capacity_mwh: float) -> bool:
        nonlocal seed
        if seed is None:
            seed = BatterySeed(demand.values, supply.values)
        spec = BatterySpec(capacity_mwh)
        inc("battery_capacity_probes")
        return battery_import_exceeds(
            seed,
            threshold_mwh=0.0,
            capacity_mwh=spec.capacity_mwh,
            floor_mwh=spec.floor_mwh,
            max_charge_mw=spec.max_charge_mw,
            max_discharge_mw=spec.max_discharge_mw,
            charge_efficiency=spec.chemistry.charge_efficiency,
            discharge_efficiency=spec.chemistry.discharge_efficiency,
            initial_energy_mwh=spec.capacity_mwh,
        )

    with span("capacity_for_full_coverage", max_hours_of_load=max_hours_of_load):
        if not has_deficit(0.0):
            return 0.0
        high = max_hours_of_load * demand.mean()
        if has_deficit(high):
            return float("inf")
        low = 0.0
        while high - low > tolerance_mwh:
            mid = (low + high) / 2.0
            if has_deficit(mid):
                low = mid
            else:
                high = mid
    return high
