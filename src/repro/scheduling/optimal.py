"""LP-optimal within-day scheduling — an upper bound for the greedy CAS.

The paper chooses a greedy heuristic for carbon-aware scheduling.  How much
does that choice cost?  This module solves each day's shifting problem to
*provable optimality* as a small linear program, giving the tightest
possible benchmark for the greedy algorithm (``bench_greedy_vs_optimal.py``
reports the gap; it is small, which is the justification the paper leaves
implicit).

Per day, with hours ``h`` and original demand ``d``, supply ``s``:

    variables   m[i][j] >= 0   work moved from hour i to hour j
                t[h]    >= 0   unmet demand in hour h
    minimize    sum_h t[h]
    subject to  sum_j m[i][j] <= FWR * d[i]                 (flexibility)
                d'[j] = d[j] - out[j] + in[j] <= capacity    (P_DC_MAX)
                t[h] >= d'[h] - s[h]                        (deficit)

This is exactly the paper's "For each day, minimize sum_h {P_DC - P_Ren}"
objective, solved exactly instead of greedily.  Requires scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..timeseries import HOURS_PER_DAY, HourlySeries

_H = HOURS_PER_DAY


def _solve_one_day(
    demand: np.ndarray,
    supply: np.ndarray,
    capacity_mw: float,
    flexible_ratio: float,
) -> np.ndarray:
    """Return the optimally shifted demand for one day (length 24)."""
    from scipy.optimize import linprog

    n_moves = _H * _H
    n_vars = n_moves + _H  # moves + deficit slack t

    # Objective: minimize sum of t.
    cost = np.zeros(n_vars)
    cost[n_moves:] = 1.0

    # Row blocks of A_ub x <= b_ub.
    rows = []
    rhs = []

    # (1) Flexibility: sum_j m[i][j] <= FWR * d[i], for each source hour i.
    for i in range(_H):
        row = np.zeros(n_vars)
        row[i * _H : (i + 1) * _H] = 1.0
        row[i * _H + i] = 0.0  # moving to yourself is a no-op; forbid below
        rows.append(row)
        rhs.append(flexible_ratio * demand[i])

    # (2) Capacity: d[j] - out[j] + in[j] <= capacity, for each hour j.
    for j in range(_H):
        row = np.zeros(n_vars)
        for i in range(_H):
            if i == j:
                continue
            row[i * _H + j] = 1.0  # inbound
            row[j * _H + i] = -1.0  # outbound
        rows.append(row)
        rhs.append(capacity_mw - demand[j])

    # (3) Deficit definition: d'[h] - s[h] - t[h] <= 0.
    for h in range(_H):
        row = np.zeros(n_vars)
        for i in range(_H):
            if i == h:
                continue
            row[i * _H + h] = 1.0
            row[h * _H + i] = -1.0
        row[n_moves + h] = -1.0
        rows.append(row)
        rhs.append(supply[h] - demand[h])

    # Bounds: m >= 0 (diagonal pinned to 0), t >= 0.
    bounds = []
    for i in range(_H):
        for j in range(_H):
            bounds.append((0.0, 0.0) if i == j else (0.0, None))
    bounds.extend((0.0, None) for _ in range(_H))

    result = linprog(
        cost,
        A_ub=np.array(rows),
        b_ub=np.array(rhs),
        bounds=bounds,
        method="highs",
    )
    if not result.success:  # pragma: no cover - defensive
        raise RuntimeError(f"day LP failed: {result.message}")

    moves = result.x[:n_moves].reshape(_H, _H)
    shifted = demand - moves.sum(axis=1) + moves.sum(axis=0)
    return shifted


@dataclass(frozen=True)
class OptimalScheduleResult:
    """Outcome of LP-optimal within-day scheduling over a year.

    Attributes mirror :class:`repro.scheduling.greedy.ScheduleResult`.
    """

    original_demand: HourlySeries
    shifted_demand: HourlySeries
    capacity_mw: float
    flexible_ratio: float

    def deficit_mwh(self, supply: HourlySeries) -> float:
        """Annual unmet-by-renewables energy under the optimal schedule."""
        return (self.shifted_demand - supply).positive_part().total()


def schedule_optimal(
    demand: HourlySeries,
    supply: HourlySeries,
    capacity_mw: float,
    flexible_ratio: float,
) -> OptimalScheduleResult:
    """Solve every day's shifting problem to optimality (needs scipy).

    Same contract as :func:`repro.scheduling.schedule_carbon_aware`; note
    that the LP optimizes *deficit* directly (the paper's stated objective),
    so it needs no carbon-intensity ranking signal.
    """
    if demand.calendar != supply.calendar:
        raise ValueError("demand and supply must share a calendar")
    if not 0.0 <= flexible_ratio <= 1.0:
        raise ValueError(f"flexible_ratio must be in [0, 1], got {flexible_ratio}")
    if capacity_mw < demand.max():
        raise ValueError(
            f"capacity {capacity_mw} MW below demand peak {demand.max():.3f} MW"
        )

    calendar = demand.calendar
    shifted = demand.values.copy()
    if flexible_ratio > 0.0:
        for day_slice in calendar.iter_days():
            day_demand = demand.values[day_slice]
            day_supply = supply.values[day_slice]
            # Skip days with no shortfall: the zero-move schedule is optimal.
            if np.all(day_demand <= day_supply):
                continue
            shifted[day_slice] = _solve_one_day(
                day_demand, day_supply, capacity_mw, flexible_ratio
            )

    return OptimalScheduleResult(
        original_demand=demand,
        shifted_demand=HourlySeries(shifted, calendar, name="optimally shifted demand"),
        capacity_mw=capacity_mw,
        flexible_ratio=flexible_ratio,
    )
