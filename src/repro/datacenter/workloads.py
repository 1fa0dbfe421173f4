"""Workload tiers, SLOs, and the flexible-workload-ratio model (Fig. 10).

The paper organizes hyperscale workloads into SLO tiers.  Figure 10 breaks
down Meta's *data-processing* workloads (about 7.5% of the fleet) by
completion-time SLO; §3.1 adds that ~40% of all Borg jobs at Google have
24-hour completion SLOs — the "realistic flexible workload ratio" the
holistic evaluation (§5.2) assumes.  Carbon-aware scheduling treats the
flexible fraction of each hour's load as movable within its SLO window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

#: Fraction of the whole fleet that is offline data processing (§4.3).
DATA_PROCESSING_FLEET_FRACTION = 0.075

#: The paper's default flexible workload ratio for the holistic analysis
#: (§5.2): "we assume 40% of datacenter workloads are delay-tolerant".
DEFAULT_FLEXIBLE_WORKLOAD_RATIO = 0.40


@dataclass(frozen=True)
class WorkloadTier:
    """One SLO tier from Figure 10.

    Attributes
    ----------
    tier:
        Tier number (1-5) as labelled in the figure.
    name:
        Human-readable tier description.
    slo_window_hours:
        Half-width of the completion window in hours: Tier 1 is ±1 h, Tier 4
        is "Daily" (±24 h), Tier 5 has no SLO (``None`` = unbounded).
    share:
        Fraction of data-processing workloads in this tier.
    """

    tier: int
    name: str
    slo_window_hours: Optional[int]
    share: float

    def __post_init__(self) -> None:
        if self.tier < 1:
            raise ValueError(f"tier must be >= 1, got {self.tier}")
        if self.slo_window_hours is not None and self.slo_window_hours < 1:
            raise ValueError(
                f"slo_window_hours must be >= 1 or None, got {self.slo_window_hours}"
            )
        if not 0.0 <= self.share <= 1.0:
            raise ValueError(f"share must be in [0, 1], got {self.share}")

    def can_shift_within(self, window_hours: int) -> bool:
        """``True`` if this tier's work may move by up to ``window_hours``."""
        if window_hours < 0:
            raise ValueError(f"window_hours must be non-negative, got {window_hours}")
        return self.slo_window_hours is None or self.slo_window_hours >= window_hours


#: Figure 10 — breakdown of data-processing workloads by completion-time SLO.
WORKLOAD_TIERS: Tuple[WorkloadTier, ...] = (
    WorkloadTier(1, "SLO: +/- 1 hour", 1, 0.088),
    WorkloadTier(2, "SLO: +/- 2 hours", 2, 0.038),
    WorkloadTier(3, "SLO: +/- 4 hours", 4, 0.105),
    WorkloadTier(4, "SLO: Daily", 24, 0.712),
    WorkloadTier(5, "No SLO", None, 0.057),
)


def flexible_fraction_within(window_hours: int) -> float:
    """Fraction of data-processing work shiftable by at least ``window_hours``.

    §4.3: "about 87.4% of the workloads have SLOs that are greater than
    4-hours" — i.e. Tiers 4 and 5 plus the ±4-hour Tier 3 boundary case; this
    helper reproduces that arithmetic for any window.
    """
    return sum(t.share for t in WORKLOAD_TIERS if t.can_shift_within(window_hours))


@dataclass(frozen=True)
class FlexibilityModel:
    """How much of each hour's datacenter load the scheduler may move.

    Attributes
    ----------
    flexible_ratio:
        Fraction of each hour's running work that is delay-tolerant (the
        paper's FWR input constraint; 0.40 in the holistic analysis, 0.10 in
        the Fig. 11 illustration, 1.0 in the Fig. 12 capacity study).
    window_hours:
        How far (in hours) flexible work may move from its original slot.
        The paper's greedy algorithm shifts within the same day (24 h).
    """

    flexible_ratio: float = DEFAULT_FLEXIBLE_WORKLOAD_RATIO
    window_hours: int = 24

    def __post_init__(self) -> None:
        if not 0.0 <= self.flexible_ratio <= 1.0:
            raise ValueError(
                f"flexible_ratio must be in [0, 1], got {self.flexible_ratio}"
            )
        if self.window_hours < 1:
            raise ValueError(f"window_hours must be >= 1, got {self.window_hours}")

    def movable_power_mw(self, load_mw: float) -> float:
        """Power (MW) of the flexible slice of an hour's ``load_mw``."""
        if load_mw < 0:
            raise ValueError(f"load must be non-negative, got {load_mw}")
        return load_mw * self.flexible_ratio

    @classmethod
    def from_tiers(cls, window_hours: int = 24) -> "FlexibilityModel":
        """A model whose ratio is the data-processing fleet share times the
        tier fraction shiftable within ``window_hours``.

        This composes Fig. 10 with the 7.5% fleet share: e.g. a 24-hour
        window yields ``0.075 * (0.712 + 0.057)`` ≈ 5.8% of total fleet load
        — the conservative lower bound when only data-processing work moves.
        """
        ratio = DATA_PROCESSING_FLEET_FRACTION * flexible_fraction_within(window_hours)
        return cls(flexible_ratio=ratio, window_hours=window_hours)
