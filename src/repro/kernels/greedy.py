"""Array-native kernel for the greedy carbon-aware scheduler (§4.3).

The per-day greedy algorithm itself is sequential (each move changes the
deficits and headroom later moves see), but everything around it
vectorizes:

* the hour orderings — deficit sources worst-carbon-first, destinations
  best-first — are stable argsorts computed for **all days at once** on the
  ``(n_days, 24)`` intensity matrix, replacing two ``sorted()`` calls with
  Python key lambdas per day;
* the movable-power matrix is one elementwise product;
* days that provably move nothing (no hour with a deficit above the move
  epsilon, or nothing movable) are skipped without entering the day loop —
  for a year with a zero flexible ratio the kernel is a single copy.

None of that depends on the capacity limit ``P_DC_MAX``, so it lives in a
:class:`ScheduleSeed` built once per (demand, supply, intensity, FWR)
tuple; a capacity search (Fig. 12) reuses one seed for every probe.

Within a candidate day the greedy loop (:func:`_schedule_day`) runs on
plain-float Python lists in the exact operation order of the original
``_schedule_one_day``, so results are bitwise identical.
"""

from __future__ import annotations

import math
from typing import List, NamedTuple, Tuple

import numpy as np

#: Ignore moves below this size (MW) to keep the greedy loop finite in the
#: presence of floating-point residue.  Mirrors ``repro.scheduling.greedy``.
_MIN_MOVE_MW = 1e-9

_HOURS_PER_DAY = 24

#: Relative margin above the threshold before a partial deficit sum may
#: answer "exceeds" early (see :func:`schedule_deficit_exceeds`).
_EARLY_EXIT_MARGIN = 1e-9


class _DayInputs(NamedTuple):
    """One candidate day's capacity-independent inputs, as Python lists."""

    day: int
    demand: List[float]
    supply: List[float]
    intensity: List[float]
    movable: List[float]
    source_order: List[int]
    dest_order: List[int]


class ScheduleSeed:
    """Capacity-independent structure of one greedy CAS problem.

    Holds the candidate days (those with an hour in deficit above the move
    epsilon and an hour with movable power), the two stable argsort
    orderings, the movable-power plane and each candidate day's inputs as
    Python lists — everything :func:`schedule_run` used to recompute per
    call.  ``demand``/``supply`` are kept for the year-level assembly.
    """

    __slots__ = ("demand", "supply", "n_days", "days")

    def __init__(
        self,
        demand: np.ndarray,
        supply: np.ndarray,
        intensity: np.ndarray,
        ratio_profile: np.ndarray,
    ) -> None:
        self.demand = demand
        self.supply = supply
        self.n_days = demand.shape[0] // _HOURS_PER_DAY
        self.days: Tuple[_DayInputs, ...] = ()
        if float(ratio_profile.max()) <= 0.0:
            return

        n_days = self.n_days
        demand_days = demand.reshape(n_days, _HOURS_PER_DAY)
        supply_days = supply.reshape(n_days, _HOURS_PER_DAY)
        intensity_days = intensity.reshape(n_days, _HOURS_PER_DAY)

        # Moves only happen within a day, so movable power per hour is fixed
        # by the original demand — one product for the whole year.
        movable_days = demand_days * ratio_profile

        candidates = np.flatnonzero(
            ((demand_days - supply_days) > _MIN_MOVE_MW).any(axis=1)
            & (movable_days > _MIN_MOVE_MW).any(axis=1)
        )
        if candidates.size == 0:
            return

        # Stable argsort matches Python's stable sorted(): ties keep hour order.
        source_orders = np.argsort(-intensity_days, axis=1, kind="stable")
        dest_orders = np.argsort(intensity_days, axis=1, kind="stable")

        self.days = tuple(
            _DayInputs(*fields)
            for fields in zip(
                candidates.tolist(),
                demand_days[candidates].tolist(),
                supply_days[candidates].tolist(),
                intensity_days[candidates].tolist(),
                movable_days[candidates].tolist(),
                source_orders[candidates].tolist(),
                dest_orders[candidates].tolist(),
            )
        )


def _schedule_day(day_inputs: _DayInputs, capacity_mw: float) -> Tuple[List[float], float]:
    """The greedy day loop: ``(shifted day demand, moved MWh)``.

    Works on copies of the seed's lists, so one seed serves every capacity.
    """
    day_demand = list(day_inputs.demand)
    day_supply = day_inputs.supply
    day_intensity = day_inputs.intensity
    movable = list(day_inputs.movable)
    dest_order = day_inputs.dest_order
    moved_day = 0.0

    for src in day_inputs.source_order:
        deficit = day_demand[src] - day_supply[src]
        if deficit <= _MIN_MOVE_MW or movable[src] <= _MIN_MOVE_MW:
            continue
        intensity_src = day_intensity[src]
        for dst in dest_order:
            if dst == src:
                continue
            if day_intensity[dst] >= intensity_src:
                break  # every further destination is at least as dirty
            deficit = day_demand[src] - day_supply[src]
            if deficit <= _MIN_MOVE_MW or movable[src] <= _MIN_MOVE_MW:
                break
            surplus = day_supply[dst] - day_demand[dst]
            headroom = capacity_mw - day_demand[dst]
            amount = min(deficit, movable[src], surplus, headroom)
            if amount <= _MIN_MOVE_MW:
                continue
            day_demand[src] -= amount
            day_demand[dst] += amount
            movable[src] -= amount
            moved_day += amount
    return day_demand, moved_day


def _assemble(seed: ScheduleSeed, day_results) -> Tuple[np.ndarray, float]:
    """Write ``(day inputs, shifted day, moved)`` results into a year copy."""
    shifted = seed.demand.copy()
    if not seed.days:
        return shifted, 0.0
    demand_days = shifted.reshape(seed.n_days, _HOURS_PER_DAY)
    moved_total = 0.0
    for day_inputs, day_demand, moved_day in day_results:
        if moved_day > 0.0:
            demand_days[day_inputs.day] = day_demand
            moved_total += moved_day
    return shifted, moved_total


def schedule_run_seeded(seed: ScheduleSeed, capacity_mw: float) -> Tuple[np.ndarray, float]:
    """:func:`schedule_run` on a prebuilt :class:`ScheduleSeed`."""
    return _assemble(
        seed,
        (
            (day_inputs, *_schedule_day(day_inputs, capacity_mw))
            for day_inputs in seed.days
        ),
    )


def schedule_run(
    demand: np.ndarray,
    supply: np.ndarray,
    intensity: np.ndarray,
    capacity_mw: float,
    ratio_profile: np.ndarray,
) -> Tuple[np.ndarray, float]:
    """Greedy CAS over a year of hourly arrays; ``(shifted, moved_mwh)``.

    ``ratio_profile`` is the normalized 24-value hour-of-day FWR profile.
    The input arrays are read-only; the shifted demand is a fresh array.
    """
    return schedule_run_seeded(
        ScheduleSeed(demand, supply, intensity, ratio_profile), capacity_mw
    )


def schedule_deficit_exceeds(
    seed: ScheduleSeed, capacity_mw: float, threshold_mwh: float
) -> bool:
    """Whether the deficit left after greedy CAS exceeds ``threshold_mwh``.

    Answers ``np.clip(shifted - supply, 0.0, None).sum() > threshold_mwh``
    exactly, where ``shifted`` is :func:`schedule_run_seeded`'s output —
    the capacity-search predicate of Fig. 12.  Candidate days run in
    calendar order and left-fold their positive hourly deficits; the
    search exits ``True`` once that running sum is finite and exceeds
    ``threshold_mwh * (1 + 1e-9)``.  Every term is non-negative and the
    full-year value is numpy's pairwise sum over a superset of the same
    terms, so the two sums differ by at most ~1e-12 relative (8784 terms)
    and the margin makes the early answer exact.  Otherwise the year is
    assembled and decided with the full-year arithmetic, which raises
    ``ValueError`` on a non-finite deficit as the series arithmetic would.
    """
    limit = threshold_mwh * (1.0 + _EARLY_EXIT_MARGIN)
    total = 0.0
    day_results = []
    for day_inputs in seed.days:
        day_demand, moved_day = _schedule_day(day_inputs, capacity_mw)
        for shifted_mw, supply_mw in zip(day_demand, day_inputs.supply):
            deficit = shifted_mw - supply_mw
            if deficit > 0.0:
                total += deficit
        if total > limit and math.isfinite(total):
            return True
        day_results.append((day_inputs, day_demand, moved_day))

    shifted, _ = _assemble(seed, day_results)
    deficit = np.subtract(shifted, seed.supply)
    if not np.all(np.isfinite(deficit)):
        raise ValueError("series values must be finite (no NaN/inf)")
    return float(np.clip(deficit, 0.0, None).sum()) > threshold_mwh
