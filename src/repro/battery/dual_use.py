"""Dual-use batteries: resilience reserve + carbon headroom (paper §2).

Datacenters already own batteries — but for uptime, not carbon: "they do
deploy batteries to ensure system resilience and shave power peaks".  A
carbon-aware operator doesn't get to drain the backup pack to zero chasing
renewables; some hours of ride-through energy must stay reserved for an
outage at all times.

This module models that constraint by mapping a resilience requirement
(hours of average load that must always remain stored) onto the C/L/C
model's depth-of-discharge floor: the carbon policy may only cycle the
energy *above* the reserve.  The interesting question — answered by
``bench_dual_use.py`` — is how much carbon benefit survives at a given
reserve, i.e. what the marginal carbon value of each reserved hour is.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..timeseries import HourlySeries
from .chemistry import LFP, CellChemistry
from .clc import BatterySpec
from .simulator import BatterySimResult, simulate_battery


def dual_use_spec(
    capacity_mwh: float,
    reserve_mwh: float,
    chemistry: CellChemistry = LFP,
) -> BatterySpec:
    """A battery whose bottom ``reserve_mwh`` is never cycled.

    The reserve becomes the C/L/C DoD floor, so every invariant the battery
    model enforces (never discharging below the floor) applies to the
    resilience energy automatically.

    Raises
    ------
    ValueError
        If the reserve doesn't fit in the pack (a reserve equal to the full
        capacity leaves nothing to cycle and is also rejected — that pack
        is a pure UPS, not a dual-use asset).
    """
    if capacity_mwh <= 0:
        raise ValueError(f"capacity must be positive, got {capacity_mwh}")
    if reserve_mwh < 0:
        raise ValueError(f"reserve must be non-negative, got {reserve_mwh}")
    if reserve_mwh >= capacity_mwh:
        raise ValueError(
            f"reserve {reserve_mwh} MWh leaves no cyclable energy in a "
            f"{capacity_mwh} MWh pack"
        )
    depth = 1.0 - reserve_mwh / capacity_mwh
    return BatterySpec(
        capacity_mwh=capacity_mwh, chemistry=chemistry, depth_of_discharge=depth
    )


def reserve_for_ride_through(
    demand: HourlySeries, ride_through_hours: float
) -> float:
    """Energy (MWh) needed to ride through an outage of the given length.

    Sized against *peak* demand — an outage does not wait for a low-load
    hour — including the discharge-efficiency margin.
    """
    if ride_through_hours < 0:
        raise ValueError(
            f"ride_through_hours must be non-negative, got {ride_through_hours}"
        )
    return demand.max() * ride_through_hours / LFP.discharge_efficiency


@dataclass(frozen=True)
class DualUseOutcome:
    """Carbon operation of a pack at one resilience-reserve level.

    Attributes
    ----------
    spec:
        The dual-use pack (reserve encoded as the DoD floor).
    reserve_mwh:
        Energy held back for outages.
    result:
        The year of carbon-driven operation above the reserve.
    """

    spec: BatterySpec
    reserve_mwh: float
    result: BatterySimResult

    @property
    def grid_import_mwh(self) -> float:
        """Annual energy still drawn from the grid."""
        return self.result.grid_import.total()


def simulate_dual_use(
    demand: HourlySeries,
    supply: HourlySeries,
    capacity_mwh: float,
    ride_through_hours: float,
    chemistry: CellChemistry = LFP,
) -> DualUseOutcome:
    """Operate a dual-use pack for carbon while guarding a resilience
    reserve sized for ``ride_through_hours`` of peak load."""
    reserve = reserve_for_ride_through(demand, ride_through_hours)
    spec = dual_use_spec(capacity_mwh, reserve, chemistry=chemistry)
    result = simulate_battery(demand, supply, spec)
    return DualUseOutcome(spec=spec, reserve_mwh=reserve, result=result)
