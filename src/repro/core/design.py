"""Design points, strategies, and design-space grids (paper §2, §5).

A *design point* is one candidate configuration of the three solution
dimensions Carbon Explorer explores: renewable investment (solar and wind
MW), battery capacity (MWh, with a depth-of-discharge setting), and extra
server capacity for demand response (a fraction of the baseline fleet,
active only when carbon-aware scheduling is enabled).

A *strategy* restricts which dimensions are allowed — the four bars per
region of Figure 15: renewables only, renewables+battery, renewables+CAS,
and all three combined.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from enum import Enum, unique
from typing import Iterator, Sequence, Tuple

from ..battery import LFP, BatterySpec, CellChemistry
from ..datacenter.workloads import DEFAULT_FLEXIBLE_WORKLOAD_RATIO
from ..grid.scaling import RenewableInvestment
from ..timeseries.stats import is_exact_zero


class DesignSpaceError(ValueError):
    """A design-space grid is invalid (empty, negative, NaN, or unsorted axes).

    Subclasses :class:`ValueError` so existing ``except ValueError``
    callers keep working; axis problems are caught at construction with a
    typed error instead of surfacing later as kernel garbage (NaN carbon
    totals, empty sweeps)."""


def _is_float_positive_zero(value: float) -> bool:
    """Whether ``value`` is the built-in float ``+0.0`` (not ``-0.0``)."""
    return (
        type(value) is float
        and is_exact_zero(value)
        and math.copysign(1.0, value) > 0.0
    )


@unique
class Strategy(Enum):
    """The four solution portfolios of the holistic analysis (§5.2)."""

    RENEWABLES_ONLY = "renewables"
    RENEWABLES_BATTERY = "renewables + battery"
    RENEWABLES_CAS = "renewables + CAS"
    RENEWABLES_BATTERY_CAS = "renewables + battery + CAS"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value

    @property
    def uses_battery(self) -> bool:
        """Whether this strategy may deploy storage."""
        return self in (Strategy.RENEWABLES_BATTERY, Strategy.RENEWABLES_BATTERY_CAS)

    @property
    def uses_scheduling(self) -> bool:
        """Whether this strategy may shift workloads."""
        return self in (Strategy.RENEWABLES_CAS, Strategy.RENEWABLES_BATTERY_CAS)


@dataclass(frozen=True)
class DesignPoint:
    """One candidate datacenter design.

    Attributes
    ----------
    investment:
        Solar and wind capacity purchased, MW.
    battery_mwh:
        Battery nameplate capacity, MWh (0 = no battery).
    depth_of_discharge:
        Usable fraction of the battery (the §5.2 DoD study knob).
    extra_capacity_fraction:
        Additional servers as a fraction of the baseline fleet, for
        deferred-work execution (0 = no over-provisioning).
    flexible_ratio:
        FWR — fraction of each hour's load the scheduler may move (only
        meaningful when the strategy schedules).
    """

    investment: RenewableInvestment
    battery_mwh: float = 0.0
    depth_of_discharge: float = 1.0
    extra_capacity_fraction: float = 0.0
    flexible_ratio: float = DEFAULT_FLEXIBLE_WORKLOAD_RATIO

    def __post_init__(self) -> None:
        if self.battery_mwh < 0:
            raise ValueError(f"battery_mwh must be non-negative, got {self.battery_mwh}")
        if not 0.0 < self.depth_of_discharge <= 1.0:
            raise ValueError(
                f"depth_of_discharge must be in (0, 1], got {self.depth_of_discharge}"
            )
        if self.extra_capacity_fraction < 0:
            raise ValueError(
                f"extra_capacity_fraction must be non-negative, "
                f"got {self.extra_capacity_fraction}"
            )
        if not 0.0 <= self.flexible_ratio <= 1.0:
            raise ValueError(
                f"flexible_ratio must be in [0, 1], got {self.flexible_ratio}"
            )

    def battery_spec(self, chemistry: CellChemistry = LFP) -> BatterySpec:
        """The battery installation this design deploys."""
        return BatterySpec(
            capacity_mwh=self.battery_mwh,
            chemistry=chemistry,
            depth_of_discharge=self.depth_of_discharge,
        )

    def constrained_to(self, strategy: Strategy) -> "DesignPoint":
        """This design with dimensions outside ``strategy`` zeroed out.

        Returns ``self`` when every such dimension already holds the float
        ``+0.0``; anything else (``-0.0``, an int ``0``) is replaced by
        ``0.0``, since design digests hash the ``repr`` of each field.
        """
        changes = {}
        if not strategy.uses_battery and not _is_float_positive_zero(self.battery_mwh):
            changes["battery_mwh"] = 0.0
        if not strategy.uses_scheduling and not (
            _is_float_positive_zero(self.extra_capacity_fraction)
            and _is_float_positive_zero(self.flexible_ratio)
        ):
            changes["extra_capacity_fraction"] = 0.0
            changes["flexible_ratio"] = 0.0
        return replace(self, **changes) if changes else self

    def describe(self) -> str:
        """One-line summary used by reports and examples."""
        return (
            f"solar={self.investment.solar_mw:.0f}MW wind={self.investment.wind_mw:.0f}MW "
            f"battery={self.battery_mwh:.0f}MWh@DoD{self.depth_of_discharge:.0%} "
            f"extra-servers={self.extra_capacity_fraction:.0%} FWR={self.flexible_ratio:.0%}"
        )


@dataclass(frozen=True)
class DesignSpace:
    """A grid of candidate designs for exhaustive search (§5: "Carbon
    Explorer exhaustively searches the design space").

    Attributes
    ----------
    solar_mw:
        Candidate solar investments.
    wind_mw:
        Candidate wind investments.
    battery_mwh:
        Candidate battery capacities (include 0 to allow "no battery").
    extra_capacity_fractions:
        Candidate over-provisioning levels (include 0).
    depth_of_discharge:
        Single DoD applied to every candidate battery.
    flexible_ratio:
        Single FWR applied when scheduling is enabled.
    """

    solar_mw: Tuple[float, ...]
    wind_mw: Tuple[float, ...]
    battery_mwh: Tuple[float, ...] = (0.0,)
    extra_capacity_fractions: Tuple[float, ...] = (0.0,)
    depth_of_discharge: float = 1.0
    flexible_ratio: float = DEFAULT_FLEXIBLE_WORKLOAD_RATIO

    def __post_init__(self) -> None:
        for name in ("solar_mw", "wind_mw", "battery_mwh", "extra_capacity_fractions"):
            axis = getattr(self, name)
            if not axis:
                raise DesignSpaceError(f"{name} axis must not be empty")
            # NaN compares false to everything, so it would slip through
            # both the sign and the sort checks below — reject explicitly.
            if any(not math.isfinite(v) for v in axis):
                raise DesignSpaceError(f"{name} axis values must be finite, got {axis}")
            if any(v < 0 for v in axis):
                raise DesignSpaceError(f"{name} axis must be non-negative")
            if sorted(axis) != list(axis):
                raise DesignSpaceError(f"{name} axis must be sorted ascending")
            if len(set(axis)) != len(axis):
                raise DesignSpaceError(f"{name} axis must not repeat values")
        if not math.isfinite(self.depth_of_discharge) or not (
            0.0 < self.depth_of_discharge <= 1.0
        ):
            raise DesignSpaceError(
                f"depth_of_discharge must be in (0, 1], got {self.depth_of_discharge}"
            )
        if not math.isfinite(self.flexible_ratio) or not (
            0.0 <= self.flexible_ratio <= 1.0
        ):
            raise DesignSpaceError(
                f"flexible_ratio must be in [0, 1], got {self.flexible_ratio}"
            )

    def size(self, strategy: Strategy) -> int:
        """Number of grid points after applying strategy constraints."""
        n = len(self.solar_mw) * len(self.wind_mw)
        if strategy.uses_battery:
            n *= len(self.battery_mwh)
        if strategy.uses_scheduling:
            n *= len(self.extra_capacity_fractions)
        return n

    def points(self, strategy: Strategy) -> Iterator[DesignPoint]:
        """Iterate the grid, with dimensions outside ``strategy`` pinned to 0."""
        batteries: Sequence[float] = self.battery_mwh if strategy.uses_battery else (0.0,)
        extras: Sequence[float] = (
            self.extra_capacity_fractions if strategy.uses_scheduling else (0.0,)
        )
        flexible = self.flexible_ratio if strategy.uses_scheduling else 0.0
        for solar, wind, battery, extra in itertools.product(
            self.solar_mw, self.wind_mw, batteries, extras
        ):
            yield DesignPoint(
                investment=RenewableInvestment(solar_mw=solar, wind_mw=wind),
                battery_mwh=battery,
                depth_of_discharge=self.depth_of_discharge,
                extra_capacity_fraction=extra,
                flexible_ratio=flexible,
            )


def default_design_space(
    avg_power_mw: float,
    supports_solar: bool,
    supports_wind: bool,
    n_renewable_steps: int = 5,
    max_renewable_multiple: float = 8.0,
    battery_hours: Tuple[float, ...] = (0.0, 2.0, 5.0, 10.0, 16.0),
    extra_capacity_fractions: Tuple[float, ...] = (0.0, 0.25, 0.5, 1.0),
    depth_of_discharge: float = 1.0,
    flexible_ratio: float = DEFAULT_FLEXIBLE_WORKLOAD_RATIO,
) -> DesignSpace:
    """A sensible bounded design space for a datacenter of a given size.

    Renewable axes run from 0 to ``max_renewable_multiple`` times the average
    datacenter power (nameplate; capacity factors mean several-times-average
    investments are routinely needed).  Battery capacities are expressed in
    hours of average load, matching the paper's "computational hours" axis.
    Axes for resources the local grid does not generate collapse to {0}.
    """
    if avg_power_mw <= 0:
        raise ValueError(f"avg_power_mw must be positive, got {avg_power_mw}")
    if n_renewable_steps < 2:
        raise ValueError(f"n_renewable_steps must be >= 2, got {n_renewable_steps}")
    step = max_renewable_multiple / (n_renewable_steps - 1)
    renewable_axis = tuple(avg_power_mw * step * i for i in range(n_renewable_steps))
    return DesignSpace(
        solar_mw=renewable_axis if supports_solar else (0.0,),
        wind_mw=renewable_axis if supports_wind else (0.0,),
        battery_mwh=tuple(avg_power_mw * h for h in battery_hours),
        extra_capacity_fractions=extra_capacity_fractions,
        depth_of_discharge=depth_of_discharge,
        flexible_ratio=flexible_ratio,
    )
