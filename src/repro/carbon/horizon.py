"""Multi-year planning-horizon carbon accounting.

Annualized embodied carbon (§5.1) answers "what does this year cost?".  A
datacenter operator planning a site wants the *horizon* question: over the
facility's 15-20-year life (§5.1: "A hyperscale datacenter's lifetime is 15
to 20 years whereas server hardware is typically three to five years"),
what does a design emit in total, counting every battery replacement and
server refresh the horizon forces?

:func:`horizon_totals` rolls one evaluated year forward: operational carbon
repeats yearly (same weather year, the paper's steady-state assumption),
renewable farms outlive the horizon (25-30 year solar, 20 year wind) and are
charged by generation like the annual model, while batteries and servers
are re-purchased each time their service life expires — including the final
partial interval, because hardware is bought whole.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..battery import BatterySpec
from ..battery.degradation import DegradationModel
from .embodied import EmbodiedCarbonModel

#: The paper's hyperscale facility lifetime band.
DATACENTER_LIFETIME_YEARS = (15.0, 20.0)


@dataclass(frozen=True)
class HorizonPlan:
    """Total carbon of one design over a planning horizon.

    Attributes
    ----------
    horizon_years:
        Planning horizon length.
    operational_tons:
        Operational carbon accumulated over the horizon.
    renewables_tons:
        Embodied carbon of farm generation over the horizon.
    battery_tons:
        Manufacturing carbon of every battery purchase the horizon needs.
    servers_tons:
        Manufacturing carbon of every server refresh the horizon needs.
    battery_purchases / server_refreshes:
        How many times each asset was bought.
    """

    horizon_years: float
    operational_tons: float
    renewables_tons: float
    battery_tons: float
    servers_tons: float
    battery_purchases: int
    server_refreshes: int

    @property
    def embodied_tons(self) -> float:
        """All manufacturing carbon over the horizon."""
        return self.renewables_tons + self.battery_tons + self.servers_tons

    @property
    def total_tons(self) -> float:
        """Operational + embodied over the horizon."""
        return self.operational_tons + self.embodied_tons


def horizon_totals(
    annual_operational_tons: float,
    annual_renewables_embodied_tons: float,
    battery: BatterySpec,
    battery_cycles_per_day: float,
    n_extra_servers: int,
    embodied: EmbodiedCarbonModel,
    horizon_years: float = 15.0,
) -> HorizonPlan:
    """Roll one simulated year's outcome over a planning horizon.

    Parameters
    ----------
    annual_operational_tons:
        Operational carbon of the evaluated year (repeats each year).
    annual_renewables_embodied_tons:
        Farm embodied carbon attributed to one year's generation.
    battery:
        The deployed pack (zero capacity = no battery purchases).
    battery_cycles_per_day:
        Observed duty cycle, which sets replacement cadence via the
        degradation model.
    n_extra_servers:
        Servers beyond the baseline fleet that this design buys.
    embodied:
        Coefficient set pricing the purchases.
    horizon_years:
        Planning horizon; the paper's facility life is 15-20 years.
    """
    if horizon_years <= 0:
        raise ValueError(f"horizon_years must be positive, got {horizon_years}")
    if annual_operational_tons < 0 or annual_renewables_embodied_tons < 0:
        raise ValueError("annual carbon figures must be non-negative")
    if n_extra_servers < 0:
        raise ValueError(f"n_extra_servers must be non-negative, got {n_extra_servers}")
    if battery_cycles_per_day < 0:
        raise ValueError("battery_cycles_per_day must be non-negative")

    operational = annual_operational_tons * horizon_years
    renewables = annual_renewables_embodied_tons * horizon_years

    battery_purchases = 0
    battery_tons = 0.0
    if battery.capacity_mwh > 0.0:
        service = DegradationModel(battery).service_years(
            cycles_per_year=battery_cycles_per_day * 365.0
        )
        battery_purchases = math.ceil(horizon_years / service)
        battery_tons = battery_purchases * embodied.battery_total_tons(battery)

    server_refreshes = 0
    servers_tons = 0.0
    if n_extra_servers > 0:
        server_refreshes = math.ceil(horizon_years / embodied.server_lifetime_years)
        servers_tons = server_refreshes * embodied.server_total_tons(n_extra_servers)

    return HorizonPlan(
        horizon_years=horizon_years,
        operational_tons=operational,
        renewables_tons=renewables,
        battery_tons=battery_tons,
        servers_tons=servers_tons,
        battery_purchases=battery_purchases,
        server_refreshes=server_refreshes,
    )


def horizon_from_evaluation(
    evaluation,
    fleet_n_servers: int,
    embodied: EmbodiedCarbonModel,
    horizon_years: float = 15.0,
) -> HorizonPlan:
    """Convenience: build a horizon plan from a :class:`DesignEvaluation`.

    ``fleet_n_servers`` is the baseline fleet size the design's
    ``extra_capacity_fraction`` applies to.
    """
    if fleet_n_servers <= 0:
        raise ValueError(f"fleet_n_servers must be positive, got {fleet_n_servers}")
    n_extra = math.ceil(fleet_n_servers * evaluation.design.extra_capacity_fraction)
    return horizon_totals(
        annual_operational_tons=evaluation.operational_tons,
        annual_renewables_embodied_tons=evaluation.renewables_embodied_tons,
        battery=evaluation.design.battery_spec(),
        battery_cycles_per_day=evaluation.battery_cycles_per_day,
        n_extra_servers=n_extra,
        embodied=embodied,
        horizon_years=horizon_years,
    )
