"""The paper's greedy carbon-aware scheduling algorithm (§4.3, Fig. 11).

    "Carbon Explorer estimates the potential benefits of carbon aware
    workload scheduling using a greedy algorithm.  The algorithm takes two
    customizable input constraints: datacenter capacity and flexible
    workload ratio for each hour of the day.  Given these two constraints,
    flexible workloads are moved from times of highest carbon intensity to
    times of lowest intensity until all flexible workloads have been moved
    or all datacenter servers have been used for the given hour."

The schedule is computed offline, one day at a time (the paper's goal is
"For each day, minimize sum_h {P_DC(h) - P_Ren(h)}" subject to
``P_DC(h) < P_DC_MAX`` with ``P_DC(h) x FWR`` allowed to shift).  Within a
day we repeatedly move flexible power from the deficit hour with the highest
grid carbon intensity to the surplus hour with the lowest, until no move can
reduce the day's unmet demand.

The year loop lives in :mod:`repro.kernels.greedy` (hour orderings argsorted
for all days at once, no-move days skipped without entering the day loop);
this module validates inputs and wraps the kernel's arrays into the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from ..kernels.greedy import schedule_run
from ..obs import inc, span
from ..timeseries import HOURS_PER_DAY, HourlySeries
from ..timeseries.stats import is_exact_zero

#: FWR may be one number for every hour or a 24-value hour-of-day profile
#: (the paper: "flexible workload ratio for each hour of the day").
FlexibleRatio = Union[float, Sequence[float]]


def _ratio_profile(flexible_ratio: FlexibleRatio) -> np.ndarray:
    """Normalize an FWR argument to a 24-value hour-of-day profile."""
    if np.isscalar(flexible_ratio):
        profile = np.full(HOURS_PER_DAY, float(flexible_ratio))
    else:
        profile = np.asarray(flexible_ratio, dtype=float)
        if profile.shape != (HOURS_PER_DAY,):
            raise ValueError(
                f"flexible_ratio profile must have 24 values, got shape {profile.shape}"
            )
    if not np.all(np.isfinite(profile)) or profile.min() < 0.0 or profile.max() > 1.0:
        raise ValueError(
            f"flexible_ratio values must be in [0, 1], got "
            f"[{profile.min()}, {profile.max()}]"
        )
    return profile


def _validated_profile(
    demand: HourlySeries,
    supply: HourlySeries,
    intensity: HourlySeries,
    flexible_ratio: FlexibleRatio,
) -> np.ndarray:
    """Check the three traces share a calendar; return the FWR profile."""
    if demand.calendar != supply.calendar or demand.calendar != intensity.calendar:
        raise ValueError("demand, supply, and intensity must share a calendar")
    return _ratio_profile(flexible_ratio)


@dataclass(frozen=True)
class ScheduleResult:
    """Outcome of carbon-aware scheduling over a year.

    Attributes
    ----------
    original_demand:
        The demand trace before shifting, MW.
    shifted_demand:
        The demand trace after shifting, MW.  Same total energy.
    moved_mwh:
        Total energy moved across hours over the year.
    capacity_mw:
        The ``P_DC_MAX`` constraint that applied.
    flexible_ratio:
        The FWR constraint that applied — mean over the hour-of-day profile
        when a 24-value profile was given.
    """

    original_demand: HourlySeries
    shifted_demand: HourlySeries
    moved_mwh: float
    capacity_mw: float
    flexible_ratio: float

    @property
    def peak_power_mw(self) -> float:
        """Peak of the shifted demand — what the fleet must now support."""
        return self.shifted_demand.max()

    def moved_fraction(self) -> float:
        """Moved energy as a fraction of total annual demand."""
        total = self.original_demand.total()
        if is_exact_zero(total):
            return 0.0
        return self.moved_mwh / total

    def additional_capacity_fraction(self) -> float:
        """Extra server capacity implied by the shifted peak (§4.3).

        Measured against the original demand peak: shifting computation into
        renewable-abundant hours piles load above the old peak, and those
        hours need additional provisioned servers.
        """
        base_peak = self.original_demand.max()
        if is_exact_zero(base_peak):
            return 0.0
        return max(self.peak_power_mw - base_peak, 0.0) / base_peak


def schedule_carbon_aware(
    demand: HourlySeries,
    supply: HourlySeries,
    intensity: HourlySeries,
    capacity_mw: float,
    flexible_ratio: FlexibleRatio,
) -> ScheduleResult:
    """Run the paper's greedy CAS over a full year.

    Parameters
    ----------
    demand:
        Hourly datacenter power, MW.
    supply:
        Hourly renewable supply available to the datacenter, MW.
    intensity:
        Hourly grid carbon intensity (gCO2eq/kWh) used to rank hours.
    capacity_mw:
        Input constraint 1 — maximum datacenter power (``P_DC_MAX``).  Must
        be at least the demand peak (the unshifted schedule must be
        feasible).
    flexible_ratio:
        Input constraint 2 — FWR, the fraction of each hour's load that may
        move (0 disables scheduling; 1 makes everything movable).  Either a
        single number, or a 24-value hour-of-day profile (the paper's
        "flexible workload ratio for each hour of the day"): e.g. more
        batch work is deferrable overnight than at peak.

    Returns
    -------
    ScheduleResult
        With a shifted demand trace of identical total energy.
    """
    ratio_profile = _validated_profile(demand, supply, intensity, flexible_ratio)
    if math.isnan(capacity_mw):
        raise ValueError(f"capacity {capacity_mw} MW is not a number (use inf for no limit)")
    if capacity_mw < demand.max():
        raise ValueError(
            f"capacity {capacity_mw} MW below demand peak {demand.max():.3f} MW: "
            "the unshifted schedule would already violate P_DC_MAX"
        )

    calendar = demand.calendar
    with span(
        "schedule_carbon_aware",
        fwr=float(ratio_profile.mean()),
        days=calendar.n_days,
    ):
        shifted, moved_total = schedule_run(
            demand.values,
            supply.values,
            intensity.values,
            capacity_mw,
            ratio_profile,
        )

    inc("schedules_run")
    inc("schedule_days", calendar.n_days)
    inc("schedule_moved_mwh", moved_total)
    return ScheduleResult(
        original_demand=demand,
        shifted_demand=HourlySeries(shifted, calendar, name="shifted demand"),
        moved_mwh=moved_total,
        capacity_mw=capacity_mw,
        flexible_ratio=float(ratio_profile.mean()),
    )
