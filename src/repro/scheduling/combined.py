"""The combined battery + carbon-aware-scheduling heuristic (§5.2).

    "We use a heuristic based solution where the priority is given to the
    workloads to minimize the runtime delays.  Whenever there is lack of
    renewable supply, the energy stored in the battery is used first and
    workload shifting happens only if the energy stored in the batteries are
    not sufficient (at maximum DoD level).  Whenever there is extra renewable
    supply, all available workloads are executed to use the available power
    first and batteries are charged with the remaining supply."

This is simulated as a single forward pass over the year with a FIFO queue of
deferred work.  Deferred work carries a deadline (its SLO window); at the
deadline it is force-executed up to the capacity limit even if that means
importing grid energy — an SLO is a promise, not a suggestion — and any work
that physically cannot fit by its deadline keeps running late (tracked as
``late_mwh``) so energy is conserved.

The forward pass itself lives in :mod:`repro.kernels.combined` (battery
dynamics inlined on local floats, vectorized/battery-only fast paths for
degenerate configurations); this module validates inputs and wraps the
kernel's arrays into the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..battery import BatterySpec
from ..kernels.combined import combined_run
from ..obs import inc, span
from ..timeseries import HourlySeries
from ..timeseries.stats import is_exact_zero


@dataclass(frozen=True)
class CombinedResult:
    """Outcome of one year of the battery-first combined heuristic.

    Attributes
    ----------
    shifted_demand:
        Hourly power actually drawn by computation, MW, after deferral and
        deferred-work execution.
    grid_import:
        Hourly power drawn from the grid, MW.
    surplus:
        Hourly renewable surplus left after running deferred work and
        charging the battery, MW.
    charge_level:
        Battery energy content at the end of each hour, MWh.
    battery_spec:
        The battery that was operated.
    capacity_mw:
        The ``P_DC_MAX`` constraint.
    deferred_mwh:
        Total energy deferred out of its original hour.
    late_mwh:
        Deferred energy executed after its deadline (capacity-bound).
    unserved_mwh:
        Deferred energy still pending at year end (should be ~0 for sane
        configurations; conservation holds:
        ``shifted.total() + unserved == original.total()``).
    charged_mwh, discharged_mwh:
        Battery meter totals over the year.
    """

    shifted_demand: HourlySeries
    grid_import: HourlySeries
    surplus: HourlySeries
    charge_level: HourlySeries
    battery_spec: BatterySpec
    capacity_mw: float
    deferred_mwh: float
    late_mwh: float
    unserved_mwh: float
    charged_mwh: float
    discharged_mwh: float

    def equivalent_full_cycles(self) -> float:
        """Equivalent full battery cycles accumulated over the year."""
        usable = self.battery_spec.usable_mwh
        if is_exact_zero(usable):
            return 0.0
        return self.discharged_mwh / usable

    def peak_power_mw(self) -> float:
        """Peak of the shifted demand trace."""
        return self.shifted_demand.max()


def simulate_combined(
    demand: HourlySeries,
    supply: HourlySeries,
    battery: BatterySpec,
    capacity_mw: float,
    flexible_ratio: float,
    deadline_hours: int = 24,
    initial_soc: float = 1.0,
) -> CombinedResult:
    """Run the battery-first combined heuristic over a year.

    Per hour, in priority order:

    1. Force-run queued work whose deadline has arrived (up to capacity).
    2. If renewables exceed the load: run queued deferred work from the
       surplus, then charge the battery, then count what's left as surplus.
    3. If the load exceeds renewables: discharge the battery first; only if
       a deficit remains, defer up to ``flexible_ratio`` of this hour's
       original demand (with a deadline ``deadline_hours`` ahead); import
       any remainder from the grid.

    Parameters mirror :func:`repro.scheduling.greedy.schedule_carbon_aware`
    plus the battery spec.  Setting ``battery.capacity_mwh = 0`` degenerates
    to (an online version of) CAS alone; ``flexible_ratio = 0`` degenerates
    to the battery-only simulation.
    """
    if demand.calendar != supply.calendar:
        raise ValueError("demand and supply must share a calendar")
    if not 0.0 <= flexible_ratio <= 1.0:
        raise ValueError(f"flexible_ratio must be in [0, 1], got {flexible_ratio}")
    if deadline_hours < 1:
        raise ValueError(f"deadline_hours must be >= 1, got {deadline_hours}")
    if math.isnan(capacity_mw):
        raise ValueError(f"capacity {capacity_mw} MW is not a number (use inf for no limit)")
    if capacity_mw < demand.max():
        raise ValueError(
            f"capacity {capacity_mw} MW below demand peak {demand.max():.3f} MW"
        )

    if not 0.0 <= initial_soc <= 1.0:
        raise ValueError(f"initial_soc must be in [0, 1], got {initial_soc}")

    calendar = demand.calendar
    n_hours = calendar.n_hours
    floor = battery.floor_mwh

    with span(
        "simulate_combined",
        capacity_mwh=battery.capacity_mwh,
        fwr=flexible_ratio,
        hours=n_hours,
    ):
        run = combined_run(
            demand.values,
            supply.values,
            capacity_mwh=battery.capacity_mwh,
            floor_mwh=floor,
            max_charge_mw=battery.max_charge_mw,
            max_discharge_mw=battery.max_discharge_mw,
            charge_efficiency=battery.chemistry.charge_efficiency,
            discharge_efficiency=battery.chemistry.discharge_efficiency,
            initial_energy_mwh=floor + initial_soc * (battery.capacity_mwh - floor),
            capacity_mw=capacity_mw,
            flexible_ratio=flexible_ratio,
            deadline_hours=deadline_hours,
        )

    inc("combined_sims")
    inc("combined_sim_hours", n_hours)
    inc("schedule_deferrals", run.deferral_events)
    inc("combined_deferred_mwh", run.deferred_mwh)
    return CombinedResult(
        shifted_demand=HourlySeries(run.shifted_demand, calendar, name="shifted demand"),
        grid_import=HourlySeries(run.grid_import, calendar, name="grid import"),
        surplus=HourlySeries(run.surplus, calendar, name="surplus"),
        charge_level=HourlySeries(run.charge_level, calendar, name="charge level"),
        battery_spec=battery,
        capacity_mw=capacity_mw,
        deferred_mwh=run.deferred_mwh,
        late_mwh=run.late_mwh,
        unserved_mwh=run.unserved_mwh,
        charged_mwh=run.charged_mwh,
        discharged_mwh=run.discharged_mwh,
    )
