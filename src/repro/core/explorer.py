"""The :class:`CarbonExplorer` facade — the library's one-stop public API.

One ``CarbonExplorer`` instance binds a datacenter site to one simulated
year (demand trace + grid data) and exposes every analysis in the paper:
coverage surfaces (Fig. 7/8), battery sizing (Fig. 9), scheduling and
capacity planning (Figs. 11/12), scenario intensities (Fig. 6), Pareto
frontiers (Fig. 14), and carbon-optimal design search (Fig. 15).

Example
-------
>>> from repro import CarbonExplorer, Strategy
>>> explorer = CarbonExplorer("UT")
>>> explorer.coverage_of_existing_investment()  # doctest: +SKIP
0.51...
>>> result = explorer.optimize(Strategy.RENEWABLES_BATTERY)  # doctest: +SKIP
>>> result.best.design.describe()  # doctest: +SKIP
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..battery import BatterySpec, BatterySimResult, capacity_for_full_coverage, simulate_battery
from ..carbon import EmbodiedCarbonModel, DEFAULT_EMBODIED_MODEL, SupplyScenario, scenario_intensity
from ..datacenter import UtilizationProfile, regional_investment
from ..grid import RenewableInvestment, projected_supply
from ..scheduling import (
    CombinedResult,
    ScheduleResult,
    additional_capacity_for_full_coverage,
    schedule_carbon_aware,
    simulate_combined,
)
from ..timeseries import DEFAULT_CALENDAR, HourlySeries
from .coverage import renewable_coverage
from .design import DesignPoint, DesignSpace, Strategy, default_design_space
from .evaluate import DesignEvaluation, SiteContext, build_site_context, evaluate_design
from .optimizer import OptimizationResult, optimize, optimize_all_strategies
from .pareto import pareto_frontier


class CarbonExplorer:
    """Design-space exploration for one datacenter site and year.

    Parameters
    ----------
    state:
        Table-1 site code (e.g. ``"UT"``, ``"OR"``, ``"NC"``).
    year:
        Simulated calendar year (defaults to the paper's 2020).
    seed:
        Base seed for the synthetic weather and demand.
    profile:
        Utilization profile for demand synthesis.
    embodied:
        Embodied-carbon coefficients (defaults to the paper's values).
    """

    def __init__(
        self,
        state: str,
        year: int = DEFAULT_CALENDAR.year,
        seed: int = 0,
        profile: UtilizationProfile = UtilizationProfile(),
        embodied: EmbodiedCarbonModel = DEFAULT_EMBODIED_MODEL,
    ) -> None:
        self.context = build_site_context(
            state, year=year, seed=seed, profile=profile, embodied=embodied
        )

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def demand_power(self) -> HourlySeries:
        """The site's hourly facility power, MW."""
        return self.context.demand.power

    @property
    def avg_power_mw(self) -> float:
        """Average facility power, MW."""
        return self.context.demand.avg_power_mw

    @property
    def state(self) -> str:
        """The site's state code."""
        return self.context.site_state

    def existing_investment(self) -> RenewableInvestment:
        """Meta's Table-1 renewable investment in this site's region."""
        return regional_investment(self.state)

    def renewable_supply(self, investment: RenewableInvestment) -> HourlySeries:
        """Hourly renewable supply projected from an investment (§4.1)."""
        return projected_supply(self.context.grid, investment)

    # ------------------------------------------------------------------
    # Coverage analyses (Figs. 7, 8)
    # ------------------------------------------------------------------
    def coverage(self, investment: RenewableInvestment) -> float:
        """Energy-weighted 24/7 coverage of an investment, in [0, 1]."""
        return renewable_coverage(self.demand_power, self.renewable_supply(investment))

    def coverage_of_existing_investment(self) -> float:
        """Coverage of Meta's current regional investment (Fig. 7's lines)."""
        return self.coverage(self.existing_investment())

    def coverage_surface(
        self,
        solar_axis_mw: Iterable[float],
        wind_axis_mw: Iterable[float],
    ) -> List[Tuple[float, float, float]]:
        """Coverage for every (solar, wind) grid point — Figure 7's surface.

        Returns ``(solar_mw, wind_mw, coverage)`` triples in row-major
        order (solar outer, wind inner).
        """
        surface = []
        for solar in solar_axis_mw:
            for wind in wind_axis_mw:
                investment = RenewableInvestment(solar_mw=solar, wind_mw=wind)
                surface.append((solar, wind, self.coverage(investment)))
        return surface

    def coverage_with_average_day_supply(self, investment: RenewableInvestment) -> float:
        """Coverage if every day had the yearly-average supply profile.

        The "average-day fallacy" of Fig. 8: this is the overly optimistic
        number a designer gets from averaged data.
        """
        supply = self.renewable_supply(investment).as_average_day()
        return renewable_coverage(self.demand_power, supply)

    # ------------------------------------------------------------------
    # Battery analyses (Figs. 9, 16)
    # ------------------------------------------------------------------
    def simulate_battery(
        self, investment: RenewableInvestment, spec: BatterySpec
    ) -> BatterySimResult:
        """Operate a battery against this site's demand and an investment."""
        return simulate_battery(self.demand_power, self.renewable_supply(investment), spec)

    def battery_mwh_for_full_coverage(
        self, investment: RenewableInvestment, max_hours_of_load: float = 48.0
    ) -> float:
        """Smallest battery (MWh) reaching 24/7 coverage, or ``inf`` (Fig. 9)."""
        return capacity_for_full_coverage(
            self.demand_power,
            self.renewable_supply(investment),
            max_hours_of_load=max_hours_of_load,
        )

    def battery_hours_for_full_coverage(
        self, investment: RenewableInvestment, max_hours_of_load: float = 48.0
    ) -> float:
        """Same as :meth:`battery_mwh_for_full_coverage`, in hours of average
        load — the paper's "computational hours" unit."""
        mwh = self.battery_mwh_for_full_coverage(investment, max_hours_of_load)
        return mwh / self.avg_power_mw

    # ------------------------------------------------------------------
    # Scheduling analyses (Figs. 11, 12)
    # ------------------------------------------------------------------
    def schedule(
        self,
        investment: RenewableInvestment,
        capacity_mw: float,
        flexible_ratio: float,
    ) -> ScheduleResult:
        """Run the paper's greedy CAS against an investment (Fig. 11)."""
        return schedule_carbon_aware(
            self.demand_power,
            self.renewable_supply(investment),
            self.context.grid_intensity,
            capacity_mw=capacity_mw,
            flexible_ratio=flexible_ratio,
        )

    def additional_capacity_for_full_coverage(
        self, investment: RenewableInvestment, flexible_ratio: float = 1.0
    ) -> float:
        """Extra-server fraction needed for 24/7 via CAS alone (Fig. 12)."""
        return additional_capacity_for_full_coverage(
            self.demand_power,
            self.renewable_supply(investment),
            self.context.grid_intensity,
            flexible_ratio=flexible_ratio,
        )

    def simulate_combined(
        self,
        investment: RenewableInvestment,
        spec: BatterySpec,
        capacity_mw: float,
        flexible_ratio: float,
    ) -> CombinedResult:
        """Run the battery-first combined heuristic (§5.2)."""
        return simulate_combined(
            self.demand_power,
            self.renewable_supply(investment),
            spec,
            capacity_mw=capacity_mw,
            flexible_ratio=flexible_ratio,
        )

    # ------------------------------------------------------------------
    # Scenario intensity (Fig. 6)
    # ------------------------------------------------------------------
    def scenario_intensity(
        self,
        scenario: SupplyScenario,
        investment: Optional[RenewableInvestment] = None,
        residual_import: Optional[HourlySeries] = None,
    ) -> HourlySeries:
        """Hourly effective carbon intensity under a supply scenario.

        ``investment`` defaults to the site's existing regional investment.
        """
        if investment is None:
            investment = self.existing_investment()
        return scenario_intensity(
            scenario,
            self.demand_power,
            self.renewable_supply(investment),
            self.context.grid_intensity,
            residual_import=residual_import,
        )

    # ------------------------------------------------------------------
    # Holistic optimization (Figs. 14, 15)
    # ------------------------------------------------------------------
    def default_space(self, **overrides) -> DesignSpace:
        """The default bounded design space for this site's size/resources."""
        kwargs = dict(
            avg_power_mw=self.avg_power_mw,
            supports_solar=self.context.supports_solar,
            supports_wind=self.context.supports_wind,
        )
        kwargs.update(overrides)
        return default_design_space(**kwargs)

    def evaluate(self, design: DesignPoint, strategy: Strategy) -> DesignEvaluation:
        """Evaluate one design end-to-end under a strategy."""
        return evaluate_design(self.context, design, strategy)

    def optimize(
        self,
        strategy: Strategy,
        space: Optional[DesignSpace] = None,
        workers: int = 1,
        **resilience,
    ) -> OptimizationResult:
        """Exhaustive carbon minimization under one strategy.

        ``workers > 1`` fans the sweep across a process pool, shipping the
        context through the zero-copy shared-memory trace plane
        (:mod:`repro.core.shm`); the result is bitwise-identical to a
        serial sweep (see :func:`repro.core.optimize`).  Further keyword
        arguments (``max_retries``, ``chunk_timeout``, ``checkpoint``,
        ``resume``, ``faults``, ``shm``, ``batch_size``) configure the
        sweep's fault tolerance, checkpoint/resume behaviour, the trace
        plane, and tensorized (design × hour) chunk evaluation — see :func:`repro.core.optimize` and
        :mod:`repro.resilience`.
        """
        if space is None:
            space = self.default_space()
        return optimize(self.context, space, strategy, workers=workers, **resilience)

    def optimize_all(
        self,
        space: Optional[DesignSpace] = None,
        workers: int = 1,
        **resilience,
    ) -> Dict[Strategy, OptimizationResult]:
        """Carbon-optimal design per strategy — one Fig. 15 column.

        Resilience keyword arguments are forwarded to every per-strategy
        sweep (``checkpoint`` becomes a per-strategy base path; see
        :func:`repro.core.optimize_all_strategies`).
        """
        return optimize_all_strategies(
            self.context, space, workers=workers, **resilience
        )

    def pareto(
        self,
        strategy: Strategy,
        space: Optional[DesignSpace] = None,
        workers: int = 1,
        **resilience,
    ) -> Tuple[DesignEvaluation, ...]:
        """Operational-vs-embodied Pareto frontier for a strategy (Fig. 14)."""
        return pareto_frontier(
            self.optimize(strategy, space, workers=workers, **resilience).evaluations
        )
