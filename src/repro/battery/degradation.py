"""Battery capacity fade over multi-year operation.

The paper treats battery lifetime as a cycle budget (§5.1): the pack dies
after its chemistry's cycle life.  Real packs fade gradually — capacity
declines with both throughput (cycle aging) and time (calendar aging) and
the pack is retired at an end-of-life threshold, conventionally 80% of
nameplate.  This module adds that refinement so multi-year planning
(:mod:`repro.carbon.horizon`) can model declining usable storage and
replacement timing instead of a cliff.

The model is deliberately simple and conservative: both aging terms are
linear, sized so that a pack reaches the end-of-life threshold exactly when
its cycle budget (at the operating DoD) or its calendar cap runs out —
consistent with the §5.1 numbers by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chemistry import CALENDAR_LIFE_CAP_YEARS
from .clc import BatterySpec

#: Conventional end-of-life threshold: the pack is replaced when usable
#: capacity falls to this fraction of nameplate.
END_OF_LIFE_FRACTION = 0.80


@dataclass(frozen=True)
class DegradationModel:
    """Linear cycle + calendar capacity fade for a battery installation.

    Attributes
    ----------
    spec:
        The pack being aged (its chemistry sets the cycle budget).
    end_of_life_fraction:
        Remaining-capacity fraction at which the pack is retired.
    """

    spec: BatterySpec
    end_of_life_fraction: float = END_OF_LIFE_FRACTION

    def __post_init__(self) -> None:
        if not 0.0 < self.end_of_life_fraction < 1.0:
            raise ValueError(
                f"end_of_life_fraction must be in (0, 1), got {self.end_of_life_fraction}"
            )
        if self.spec.capacity_mwh <= 0:
            raise ValueError("degradation model needs a positive-capacity pack")

    @property
    def total_fade(self) -> float:
        """Capacity fraction lost over the pack's whole service life."""
        return 1.0 - self.end_of_life_fraction

    @property
    def fade_per_cycle(self) -> float:
        """Capacity fraction lost per equivalent full cycle.

        Sized so that exhausting the §5.1 cycle budget at this DoD uses up
        exactly the fade budget.
        """
        budget = self.spec.chemistry.cycle_life(self.spec.depth_of_discharge)
        return self.total_fade / budget

    @property
    def fade_per_year(self) -> float:
        """Calendar fade per idle year (reaches end of life at the 27-year
        calendar cap even with zero cycling)."""
        return self.total_fade / CALENDAR_LIFE_CAP_YEARS

    def service_years(self, cycles_per_year: float) -> float:
        """Years until end of life at a steady duty cycle.

        Solves ``cycles_per_year * t * fade_per_cycle + t * fade_per_year =
        total_fade`` for ``t``.
        """
        if cycles_per_year < 0:
            raise ValueError(f"cycles_per_year must be non-negative, got {cycles_per_year}")
        rate = cycles_per_year * self.fade_per_cycle + self.fade_per_year
        return self.total_fade / rate
