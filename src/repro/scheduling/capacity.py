"""Server-capacity planning for demand response (§4.3, Fig. 12).

Shifting computation toward renewable-abundant hours piles load above the
original peak, so carbon-aware scheduling "may require additional server
capacity for sustained increases in computation when carbon-free/low-carbon
energy is abundant".  This module answers the two planning questions the
paper poses:

* Given a capacity limit, how much does CAS improve coverage?
  (:func:`deficit_after_scheduling`)
* How much extra capacity is needed to reach 24/7 coverage — Figure 12's
  19% to >100% range with all workloads flexible?
  (:func:`additional_capacity_for_full_coverage`)
"""

from __future__ import annotations

import math

from ..kernels.greedy import ScheduleSeed, schedule_deficit_exceeds
from ..obs import inc, span
from ..timeseries import HourlySeries
from .greedy import _validated_profile, schedule_carbon_aware
from ..timeseries.stats import is_exact_zero

#: Widest capacity expansion the search considers, as a multiple of the
#: original peak.  Fig. 12 tops out at "over 100%" additional capacity, i.e.
#: a bit above 2x; we search to 8x before declaring 24/7 unreachable.
MAX_CAPACITY_MULTIPLE = 8.0


def deficit_after_scheduling(
    demand: HourlySeries,
    supply: HourlySeries,
    intensity: HourlySeries,
    capacity_mw: float,
    flexible_ratio: float,
) -> float:
    """Annual unmet-by-renewables energy (MWh) after greedy CAS."""
    result = schedule_carbon_aware(demand, supply, intensity, capacity_mw, flexible_ratio)
    return (result.shifted_demand - supply).positive_part().total()


def additional_capacity_for_full_coverage(
    demand: HourlySeries,
    supply: HourlySeries,
    intensity: HourlySeries,
    flexible_ratio: float = 1.0,
    tolerance_mwh: float = 1.0,
    max_multiple: float = MAX_CAPACITY_MULTIPLE,
) -> float:
    """Smallest extra-capacity fraction giving zero deficit after CAS.

    Returns the additional capacity as a fraction of the original demand
    peak (0.19 means "+19% servers", Fig. 12's y-axis), or ``float('inf')``
    if even ``max_multiple`` times the peak cannot reach 24/7 coverage —
    e.g. on days with near-zero renewable supply, where no amount of
    shifting within the day helps.

    The search is a bisection on the capacity limit; the deficit after
    scheduling is monotonically non-increasing in capacity because any
    schedule feasible at a lower limit remains feasible at a higher one.
    Each step only asks whether :func:`deficit_after_scheduling` exceeds
    ``tolerance_mwh``, so it runs on
    :func:`repro.kernels.greedy.schedule_deficit_exceeds`: the inputs are
    validated once, every step shares one
    :class:`~repro.kernels.greedy.ScheduleSeed`, and an undersized
    capacity stops at the first day whose running deficit proves the
    answer.
    """
    if not math.isfinite(tolerance_mwh):
        raise ValueError(f"tolerance_mwh must be finite, got {tolerance_mwh}")
    if tolerance_mwh <= 0:
        raise ValueError(f"tolerance_mwh must be positive, got {tolerance_mwh}")
    if not math.isfinite(max_multiple):
        raise ValueError(f"max_multiple must be finite, got {max_multiple}")
    if max_multiple < 1.0:
        raise ValueError(f"max_multiple must be >= 1, got {max_multiple}")

    base_peak = demand.max()
    if is_exact_zero(base_peak):
        raise ValueError("demand trace is identically zero")
    ratio_profile = _validated_profile(demand, supply, intensity, flexible_ratio)
    seed = ScheduleSeed(demand.values, supply.values, intensity.values, ratio_profile)

    def has_deficit(multiple: float) -> bool:
        inc("cas_capacity_probes")
        return schedule_deficit_exceeds(seed, base_peak * multiple, tolerance_mwh)

    with span("additional_capacity_for_full_coverage", max_multiple=max_multiple):
        if not has_deficit(1.0):
            return 0.0
        if has_deficit(max_multiple):
            return float("inf")

        low, high = 1.0, max_multiple
        # Bisect until the capacity bracket is tight to ~0.1% of the peak.
        while high - low > 1e-3:
            mid = (low + high) / 2.0
            if has_deficit(mid):
                low = mid
            else:
                high = mid
    return high - 1.0
