"""Object-free kernels for the C/L/C battery year loop (§4.2).

The greedy charge-on-surplus / discharge-on-deficit policy is inherently
sequential (each hour's limits depend on the previous hour's energy
content), so the general case stays a Python loop — but one over plain
floats with every spec constant hoisted to a local, instead of per-hour
:class:`~repro.battery.clc.Battery` method calls with argument validation
and property lookups.  The zero-capacity case degenerates to pure
arithmetic and is fully vectorized.

The loop body replicates the exact IEEE operation order of
``Battery.charge`` / ``Battery.discharge`` (with ``duration_h = 1``), so
kernel results are bitwise identical to the original implementation.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class BatteryRunArrays(NamedTuple):
    """Raw-array outcome of one battery run (see ``BatterySimResult``).

    ``grid_import``/``surplus``/``charge_level`` are hourly arrays aligned
    with the inputs; ``charged_mwh``/``discharged_mwh`` are the meter
    totals over the run.
    """

    grid_import: np.ndarray
    surplus: np.ndarray
    charge_level: np.ndarray
    charged_mwh: float
    discharged_mwh: float


def renewables_only_run(demand: np.ndarray, supply: np.ndarray):
    """Vectorized no-battery case: ``(grid_import, surplus)`` arrays.

    The grid covers every hourly shortfall and every hourly excess is
    spilled — the positive parts of the two gap directions.
    """
    grid_import = np.maximum(demand - supply, 0.0)
    surplus = np.maximum(supply - demand, 0.0)
    return grid_import, surplus


def battery_run(
    demand: np.ndarray,
    supply: np.ndarray,
    *,
    capacity_mwh: float,
    floor_mwh: float,
    max_charge_mw: float,
    max_discharge_mw: float,
    charge_efficiency: float,
    discharge_efficiency: float,
    initial_energy_mwh: float,
) -> BatteryRunArrays:
    """One greedy battery run over aligned hourly ``demand``/``supply`` arrays.

    All constants are the :class:`~repro.battery.clc.BatterySpec` values the
    wrapper hoists once per call; ``initial_energy_mwh`` is the starting
    energy content (``floor + soc * (capacity - floor)``).
    """
    n_hours = demand.shape[0]
    if capacity_mwh == 0.0:  # repro-lint: disable=RL005 — exact degenerate-case guard; kernels import nothing
        grid_import, surplus = renewables_only_run(demand, supply)
        return BatteryRunArrays(grid_import, surplus, np.zeros(n_hours), 0.0, 0.0)

    demand_list = demand.tolist()
    supply_list = supply.tolist()
    grid_import = [0.0] * n_hours
    surplus = [0.0] * n_hours
    charge_level = [0.0] * n_hours

    energy = initial_energy_mwh
    charged = 0.0
    discharged = 0.0
    eta_charge = charge_efficiency
    eta_discharge = discharge_efficiency

    for hour in range(n_hours):
        gap = supply_list[hour] - demand_list[hour]
        if gap >= 0.0:
            if gap > 0.0:
                power = gap if gap < max_charge_mw else max_charge_mw
                limit = (capacity_mwh - energy) / eta_charge
                if power > limit:
                    power = limit
                if power < 0.0:
                    power = 0.0
                energy += power * eta_charge
                charged += power
                surplus[hour] = gap - power
        else:
            requested = -gap
            power = requested if requested < max_discharge_mw else max_discharge_mw
            limit = (energy - floor_mwh) * eta_discharge
            if power > limit:
                power = limit
            if power < 0.0:
                power = 0.0
            energy -= power / eta_discharge
            discharged += power
            grid_import[hour] = requested - power
        charge_level[hour] = energy

    return BatteryRunArrays(
        np.asarray(grid_import),
        np.asarray(surplus),
        np.asarray(charge_level),
        charged,
        discharged,
    )


class BatterySeed:
    """Capacity-independent saturation structure of one (demand, supply) pair.

    Exhaustive sweeps walk the battery-capacity axis with the *same*
    demand and supply traces: adjacent grid points differ only in
    ``capacity_mwh``.  Everything here depends on the traces alone, so it
    is computed once per investment and seeds every capacity's year loop
    (:func:`battery_run_seeded`):

    * ``gap_list`` — the hourly ``supply - demand`` gap, hoisted out of
      every run's loop;
    * ``next_deficit`` / ``next_surplus`` — for each hour, the next hour
      with a strict deficit (``gap < 0``) / strict surplus (``gap > 0``),
      or ``n_hours``.  These delimit the *saturation stretches*: a battery
      sitting at exactly full capacity stays there (charge power clips to
      exactly ``0.0``) until the next deficit, and one at exactly the DoD
      floor stays there until the next surplus — for any capacity;
    * ``surplus_if_full`` / ``import_if_empty`` — the output values the
      exact scalar recurrence produces during those stretches (``gap`` on
      surplus hours / ``-gap`` on deficit hours), precomputed so a stretch
      is committed as one array copy.

    The greedy policy spends 40–70 % of a realistic year pinned at one of
    the two rails (the U-shaped Fig. 16 histogram), which is what makes
    the fast-forward pay.
    """

    __slots__ = (
        "demand",
        "supply",
        "gap",
        "gap_list",
        "next_deficit",
        "next_surplus",
        "surplus_if_full",
        "import_if_empty",
        "n_hours",
    )

    def __init__(self, demand: np.ndarray, supply: np.ndarray) -> None:
        n_hours = demand.shape[0]
        if supply.shape[0] != n_hours:
            raise ValueError(
                f"demand ({n_hours}) and supply ({supply.shape[0]}) lengths differ"
            )
        # Elementwise float64 subtraction is bitwise-identical to the
        # scalar per-hour subtraction the plain kernel performs.
        gap = np.subtract(supply, demand)
        hours = np.arange(n_hours)
        self.demand = demand
        self.supply = supply
        self.gap = gap
        self.gap_list = gap.tolist()
        self.n_hours = n_hours
        self.next_deficit = np.minimum.accumulate(
            np.where(gap < 0.0, hours, n_hours)[::-1]
        )[::-1]
        self.next_surplus = np.minimum.accumulate(
            np.where(gap > 0.0, hours, n_hours)[::-1]
        )[::-1]
        self.surplus_if_full = np.where(gap > 0.0, gap, 0.0)
        self.import_if_empty = np.where(gap < 0.0, np.negative(gap), 0.0)

    def matches(self, demand: np.ndarray, supply: np.ndarray) -> bool:
        """Whether this seed was built from exactly these traces."""
        return (
            (demand is self.demand or np.array_equal(demand, self.demand))
            and (supply is self.supply or np.array_equal(supply, self.supply))
        )


def battery_run_seeded(
    seed: BatterySeed,
    *,
    capacity_mwh: float,
    floor_mwh: float,
    max_charge_mw: float,
    max_discharge_mw: float,
    charge_efficiency: float,
    discharge_efficiency: float,
    initial_energy_mwh: float,
) -> BatteryRunArrays:
    """:func:`battery_run` seeded with a precomputed :class:`BatterySeed`.

    Bitwise-identical output (property-tested in
    ``tests/kernels/test_battery_seeded.py``).  The year loop is the same
    exact scalar recurrence, but whenever the energy content sits at
    exactly ``capacity_mwh`` (or exactly ``floor_mwh``), the recurrence is
    a no-op until the next deficit (surplus) hour — charge power clips to
    ``(capacity - energy) / eta = +0.0`` — so the whole stretch is
    committed from the seed's precomputed arrays in one slice copy.  The
    battery starts full in sweeps and the rails re-pin constantly (the
    ``(x / eta) * eta`` round-trip is exact for a large fraction of
    doubles), so the fast-forwards typically cover 40–70 % of the year.
    """
    n_hours = seed.n_hours
    if capacity_mwh == 0.0:  # repro-lint: disable=RL005 — exact degenerate-case guard; kernels import nothing
        grid_import, surplus = renewables_only_run(seed.demand, seed.supply)
        return BatteryRunArrays(grid_import, surplus, np.zeros(n_hours), 0.0, 0.0)

    gap_list = seed.gap_list
    next_deficit = seed.next_deficit
    next_surplus = seed.next_surplus
    grid_import = np.zeros(n_hours)
    surplus = np.zeros(n_hours)
    charge_level = np.empty(n_hours)

    energy = initial_energy_mwh
    charged = 0.0
    discharged = 0.0
    eta_charge = charge_efficiency
    eta_discharge = discharge_efficiency

    hour = 0
    while hour < n_hours:
        gap = gap_list[hour]
        if energy == capacity_mwh and gap >= 0.0:
            # Pinned at full: every hour until the next deficit charges
            # exactly 0.0 MW and spills the whole gap.
            stop = int(next_deficit[hour])
            surplus[hour:stop] = seed.surplus_if_full[hour:stop]
            charge_level[hour:stop] = energy
            hour = stop
            continue
        if energy == floor_mwh and gap <= 0.0:
            # Pinned at the DoD floor: every hour until the next surplus
            # discharges exactly 0.0 MW and imports the whole deficit.
            stop = int(next_surplus[hour])
            grid_import[hour:stop] = seed.import_if_empty[hour:stop]
            charge_level[hour:stop] = energy
            hour = stop
            continue
        # Off the rails: the plain kernel's exact loop body.
        if gap >= 0.0:
            if gap > 0.0:
                power = gap if gap < max_charge_mw else max_charge_mw
                limit = (capacity_mwh - energy) / eta_charge
                if power > limit:
                    power = limit
                if power < 0.0:
                    power = 0.0
                energy += power * eta_charge
                charged += power
                surplus[hour] = gap - power
        else:
            requested = -gap
            power = requested if requested < max_discharge_mw else max_discharge_mw
            limit = (energy - floor_mwh) * eta_discharge
            if power > limit:
                power = limit
            if power < 0.0:
                power = 0.0
            energy -= power / eta_discharge
            discharged += power
            grid_import[hour] = requested - power
        charge_level[hour] = energy
        hour += 1

    return BatteryRunArrays(grid_import, surplus, charge_level, charged, discharged)


def battery_import_exceeds(
    seed: BatterySeed,
    *,
    threshold_mwh: float,
    capacity_mwh: float,
    floor_mwh: float,
    max_charge_mw: float,
    max_discharge_mw: float,
    charge_efficiency: float,
    discharge_efficiency: float,
    initial_energy_mwh: float,
) -> bool:
    """Whether total grid import of a seeded battery run exceeds ``threshold_mwh``.

    The capacity-search predicate ("does this battery still leave a
    deficit?") does not need the full traces: hourly imports are
    non-negative, so the cumulative total is monotone and the year loop can
    exit the moment it crosses the threshold — for undersized capacities
    that is typically within the first winter week.  A run that never
    crosses (the exactly-zero-deficit midpoints of the binary search)
    completes the year and returns ``False``; those runs spend most of the
    year pinned full, and a non-deficit hour at exactly ``capacity_mwh``
    jumps straight to the seed's next deficit hour (every skipped hour
    charges exactly ``+0.0`` and imports nothing — the same stretch
    argument as :func:`battery_run_seeded`).  Deficit hours run the plain
    clamp chain and fold ``total_import`` left to right in hour order.
    The zero-capacity probe is pure vector arithmetic.
    """
    if capacity_mwh == 0.0:  # repro-lint: disable=RL005 — exact degenerate-case guard; kernels import nothing
        return float(np.maximum(seed.demand - seed.supply, 0.0).sum()) > threshold_mwh

    gap_list = seed.gap_list
    next_deficit = seed.next_deficit
    n_hours = seed.n_hours
    energy = initial_energy_mwh
    eta_charge = charge_efficiency
    eta_discharge = discharge_efficiency
    total_import = 0.0

    hour = 0
    while hour < n_hours:
        gap = gap_list[hour]
        if gap >= 0.0:
            if energy == capacity_mwh:
                hour = int(next_deficit[hour])
                continue
            if gap > 0.0:
                power = gap if gap < max_charge_mw else max_charge_mw
                limit = (capacity_mwh - energy) / eta_charge
                if power > limit:
                    power = limit
                if power < 0.0:
                    power = 0.0
                energy += power * eta_charge
        else:
            requested = -gap
            power = requested if requested < max_discharge_mw else max_discharge_mw
            limit = (energy - floor_mwh) * eta_discharge
            if power > limit:
                power = limit
            if power < 0.0:
                power = 0.0
            energy -= power / eta_discharge
            total_import += requested - power
            if total_import > threshold_mwh:
                return True
        hour += 1
    return total_import > threshold_mwh
