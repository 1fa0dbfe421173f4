"""End-to-end evaluation of a design point (the Fig. 13 pipeline).

Given a datacenter site, one year of grid data, and a candidate design,
this module runs the full Carbon Explorer pipeline: project renewable
supply from the investment, operate the battery and/or the carbon-aware
scheduler against the demand trace, and account both the operational carbon
of residual grid imports and the annualized embodied carbon of every asset
the design buys.
"""

from __future__ import annotations

import math
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..battery import BatterySeed, simulate_battery
from ..carbon import (
    DEFAULT_EMBODIED_MODEL,
    EmbodiedCarbonModel,
    operational_carbon_tons_values,
)
from ..datacenter import (
    DatacenterDemand,
    UtilizationProfile,
    get_site,
    synthesize_demand,
)
from ..grid import GridDataset, generate_grid_dataset, scale_trace_to_capacity
from ..kernels.batch import (
    battery_run_batch,
    combined_run_batch,
    schedule_run_batch,
)
from ..obs import gauge_value, inc, set_gauge, span
from ..scheduling import schedule_carbon_aware, simulate_combined
from ..timeseries import DEFAULT_CALENDAR, HOURS_PER_DAY, HourlySeries, YearCalendar
from .coverage import coverage_from_import_values
from .design import DesignPoint, Strategy
from ..timeseries.stats import is_exact_zero

#: Guards lazy creation of per-context caches under threaded sweeps.
_CACHE_CREATION_LOCK = threading.Lock()


class SupplyProjectionCache:
    """Memoized renewable-supply projections for one site's grid.

    :func:`repro.grid.scale_trace_to_capacity` is linear in the trace, and
    exhaustive sweeps revisit the same ``(solar_mw, wind_mw)`` investment
    pair once per battery/server grid coordinate — so each scaled trace and
    each combined supply series is computed once and memoized by its grid
    coordinate.  Entries are exact :func:`scale_trace_to_capacity` results
    (same IEEE operations), so cached and uncached evaluations are bitwise
    identical.

    Hit/miss totals are exported through :mod:`repro.obs` as the
    ``supply_cache_hits`` / ``supply_cache_misses`` counters.  The combined
    map is LRU-bounded; the per-axis maps hold one entry per distinct axis
    value, which sweeps keep small by construction.  Renewables-only
    evaluation reads the per-axis maps alone (:meth:`axis_traces`): a
    renewables-only grid visits each investment once, so inserting its
    combined supply would only churn the LRU.
    """

    _MAX_COMBINED_ENTRIES = 1024

    __slots__ = ("_solar_source", "_wind_source", "_solar", "_wind", "_combined", "_lock")

    def __init__(self, solar_source: HourlySeries, wind_source: HourlySeries) -> None:
        self._solar_source = solar_source
        self._wind_source = wind_source
        self._solar: Dict[float, HourlySeries] = {}
        self._wind: Dict[float, HourlySeries] = {}
        self._combined: "OrderedDict[Tuple[float, float], HourlySeries]" = OrderedDict()
        self._lock = threading.Lock()

    def _scaled(
        self, cache: Dict[float, HourlySeries], source: HourlySeries, capacity_mw: float
    ) -> HourlySeries:
        trace = cache.get(capacity_mw)
        if trace is None:
            trace = scale_trace_to_capacity(source, capacity_mw)
            cache[capacity_mw] = trace
        return trace

    def axis_traces(
        self, solar_mw: float, wind_mw: float
    ) -> Tuple[HourlySeries, HourlySeries]:
        """``(solar_trace, wind_trace)`` for one investment, no combined entry.

        Counts neither a hit nor a miss: the combined-supply LRU is not
        consulted.
        """
        with self._lock:
            return (
                self._scaled(self._solar, self._solar_source, solar_mw),
                self._scaled(self._wind, self._wind_source, wind_mw),
            )

    def project(
        self, solar_mw: float, wind_mw: float
    ) -> Tuple[HourlySeries, HourlySeries, HourlySeries]:
        """``(solar_trace, wind_trace, combined_supply)`` for one investment."""
        key = (solar_mw, wind_mw)
        with self._lock:
            supply = self._combined.get(key)
            if supply is not None:
                self._combined.move_to_end(key)
                inc("supply_cache_hits")
                return self._solar[solar_mw], self._wind[wind_mw], supply
            inc("supply_cache_misses")
            solar_trace = self._scaled(self._solar, self._solar_source, solar_mw)
            wind_trace = self._scaled(self._wind, self._wind_source, wind_mw)
            supply = HourlySeries.from_buffer(
                np.add(solar_trace.values, wind_trace.values),
                solar_trace.calendar,
                name="renewable supply",
            )
            self._combined[key] = supply
            if len(self._combined) > self._MAX_COMBINED_ENTRIES:
                self._combined.popitem(last=False)
            return solar_trace, wind_trace, supply


class BatterySeedCache:
    """Memoized :class:`~repro.kernels.battery.BatterySeed` per investment.

    The battery-capacity axis of a sweep revisits each ``(solar_mw,
    wind_mw)`` investment once per capacity/server coordinate with the
    same demand and supply traces, so the capacity-independent saturation
    structure (gap trace, rail stretch indices) is built once and seeds
    every capacity's run.  Seeded and unseeded runs are bitwise
    identical; hit/miss totals are the ``battery_seed_cache_hits`` /
    ``battery_seed_cache_misses`` counters.  LRU-bounded — each seed
    holds a few year-length arrays.
    """

    _MAX_ENTRIES = 64

    __slots__ = ("_demand_values", "_seeds", "_lock")

    def __init__(self, demand_values) -> None:
        self._demand_values = demand_values
        self._seeds: "OrderedDict[Tuple[float, float], BatterySeed]" = OrderedDict()
        self._lock = threading.Lock()

    def seed_for(self, key: Tuple[float, float], supply_values) -> BatterySeed:
        """The seed for one ``(solar_mw, wind_mw)`` investment's supply."""
        with self._lock:
            seed = self._seeds.get(key)
            if seed is not None:
                self._seeds.move_to_end(key)
                inc("battery_seed_cache_hits")
                return seed
            inc("battery_seed_cache_misses")
            seed = BatterySeed(self._demand_values, supply_values)
            self._seeds[key] = seed
            if len(self._seeds) > self._MAX_ENTRIES:
                self._seeds.popitem(last=False)
            return seed


@dataclass(frozen=True)
class SiteContext:
    """Everything fixed about a site while exploring designs.

    Attributes
    ----------
    demand:
        The site's synthesized demand (power trace + fleet model).
    grid:
        One year of (synthetic) grid data for the site's balancing authority.
    grid_intensity:
        The grid's hourly carbon intensity, cached because every design
        evaluation reuses it.
    embodied:
        Embodied-carbon coefficients to charge against purchased assets.
    """

    demand: DatacenterDemand
    grid: GridDataset
    grid_intensity: HourlySeries
    embodied: EmbodiedCarbonModel = DEFAULT_EMBODIED_MODEL

    @property
    def site_state(self) -> str:
        """State code of the site under evaluation."""
        return self.demand.site.state

    @property
    def supports_solar(self) -> bool:
        """Whether the local grid generates any solar to invest in."""
        return self.grid.solar.max() > 0.0

    @property
    def supports_wind(self) -> bool:
        """Whether the local grid generates any wind to invest in."""
        return self.grid.wind.max() > 0.0

    @property
    def supply_cache(self) -> SupplyProjectionCache:
        """The lazily created per-context supply-projection cache."""
        cache = self.__dict__.get("_supply_cache")
        if cache is None:
            with _CACHE_CREATION_LOCK:
                cache = self.__dict__.get("_supply_cache")
                if cache is None:
                    cache = SupplyProjectionCache(self.grid.solar, self.grid.wind)
                    object.__setattr__(self, "_supply_cache", cache)
        return cache

    @property
    def battery_seed_cache(self) -> BatterySeedCache:
        """The lazily created per-context battery-seed cache."""
        cache = self.__dict__.get("_battery_seed_cache")
        if cache is None:
            with _CACHE_CREATION_LOCK:
                cache = self.__dict__.get("_battery_seed_cache")
                if cache is None:
                    cache = BatterySeedCache(self.demand.power.values)
                    object.__setattr__(self, "_battery_seed_cache", cache)
        return cache

    def __getstate__(self):
        # The projection/seed caches hold locks and can be megabytes of
        # memoized traces; workers rebuild their own, so keep them out of
        # the pickle.
        state = self.__dict__.copy()
        state.pop("_supply_cache", None)
        state.pop("_battery_seed_cache", None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)


#: Memoized contexts for repeat ``build_site_context`` calls (benchmarks and
#: the CLI rebuild the same site once per figure/subcommand).  Explicitly
#: LRU-bounded — each entry holds a year of demand plus four grid traces,
#: so a long-lived multi-site process must not grow this without limit.
#: Evictions are exported as the ``site_context_cache_evictions`` counter.
_MAX_CONTEXT_ENTRIES = 16
_context_cache: "OrderedDict[tuple, SiteContext]" = OrderedDict()
_context_cache_lock = threading.Lock()
_context_cache_limit = _MAX_CONTEXT_ENTRIES


def set_context_cache_limit(max_entries: int) -> int:
    """Set the LRU bound of the site-context cache; returns the old limit.

    Long-lived processes sweeping many ``(site, year, seed)`` combinations
    can lower (or raise) the default of %d entries.  Shrinking evicts
    oldest-first immediately; each eviction increments the
    ``site_context_cache_evictions`` counter.
    """ % _MAX_CONTEXT_ENTRIES
    global _context_cache_limit
    if max_entries < 1:
        raise ValueError(f"max_entries must be >= 1, got {max_entries}")
    with _context_cache_lock:
        old, _context_cache_limit = _context_cache_limit, max_entries
        while len(_context_cache) > _context_cache_limit:
            _context_cache.popitem(last=False)
            inc("site_context_cache_evictions")
    return old


def context_cache_size() -> int:
    """Number of contexts currently memoized (for tests and diagnostics)."""
    with _context_cache_lock:
        return len(_context_cache)


def build_site_context(
    state: str,
    year: int = DEFAULT_CALENDAR.year,
    seed: int = 0,
    profile: UtilizationProfile = UtilizationProfile(),
    embodied: EmbodiedCarbonModel = DEFAULT_EMBODIED_MODEL,
) -> SiteContext:
    """Assemble the :class:`SiteContext` for a Table-1 site.

    Deterministic in ``(state, year, seed, profile)``, so results are
    memoized (LRU, keyed on all five arguments) — callers that rebuild the
    same site pay the demand/grid synthesis once.  Unhashable ``profile`` or
    ``embodied`` arguments skip the cache rather than fail.
    """
    key = (state, year, seed, profile, embodied)
    try:
        hash(key)
    except TypeError:
        key = None
    if key is not None:
        with _context_cache_lock:
            context = _context_cache.get(key)
            if context is not None:
                _context_cache.move_to_end(key)
                inc("site_context_cache_hits")
                return context
        inc("site_context_cache_misses")

    site = get_site(state)
    calendar = YearCalendar(year)
    demand = synthesize_demand(site, calendar, profile=profile, seed=seed)
    grid = generate_grid_dataset(site.authority_code, year=year, seed=seed)
    context = SiteContext(
        demand=demand,
        grid=grid,
        grid_intensity=grid.carbon_intensity_g_per_kwh(),
        embodied=embodied,
    )
    if key is not None:
        with _context_cache_lock:
            _context_cache[key] = context
            while len(_context_cache) > _context_cache_limit:
                _context_cache.popitem(last=False)
                inc("site_context_cache_evictions")
    return context


@dataclass(frozen=True)
class DesignEvaluation:
    """The carbon outcome of one design under one strategy.

    Attributes
    ----------
    design:
        The evaluated design (after strategy constraints were applied).
    strategy:
        The solution portfolio evaluated.
    coverage:
        Energy-weighted 24/7 renewable coverage achieved, in [0, 1].
    operational_tons:
        Annual operational carbon from residual grid imports, tCO2eq/yr.
    renewables_embodied_tons:
        Annualized embodied carbon of the solar/wind farms, tCO2eq/yr.
    battery_embodied_tons:
        Annualized embodied carbon of the battery, tCO2eq/yr.
    servers_embodied_tons:
        Annualized embodied carbon of extra servers, tCO2eq/yr.
    grid_import_mwh:
        Annual energy imported from the grid.
    surplus_mwh:
        Annual renewable energy the design could not use or store.
    moved_mwh:
        Annual energy the scheduler shifted across hours.
    battery_cycles_per_day:
        Observed battery duty cycle (0 without a battery).
    """

    design: DesignPoint
    strategy: Strategy
    coverage: float
    operational_tons: float
    renewables_embodied_tons: float
    battery_embodied_tons: float
    servers_embodied_tons: float
    grid_import_mwh: float
    surplus_mwh: float
    moved_mwh: float
    battery_cycles_per_day: float

    @property
    def embodied_tons(self) -> float:
        """Total annualized embodied carbon, tCO2eq/yr."""
        return (
            self.renewables_embodied_tons
            + self.battery_embodied_tons
            + self.servers_embodied_tons
        )

    @property
    def total_tons(self) -> float:
        """Operational + embodied — the optimizer's objective, tCO2eq/yr."""
        return self.operational_tons + self.embodied_tons

    def tons_per_mw(self, avg_power_mw: float) -> float:
        """Total carbon normalized by datacenter size (Fig. 15's y-axis)."""
        if avg_power_mw <= 0:
            raise ValueError(f"avg_power_mw must be positive, got {avg_power_mw}")
        return self.total_tons / avg_power_mw


def _extra_servers(context: SiteContext, extra_fraction: float) -> int:
    """Physical extra servers a capacity fraction buys (rounded up)."""
    if is_exact_zero(extra_fraction):
        return 0
    return math.ceil(context.demand.fleet.n_servers * extra_fraction)


def evaluate_design(
    context: SiteContext,
    design: DesignPoint,
    strategy: Strategy,
) -> DesignEvaluation:
    """Run the full pipeline for one design under one strategy.

    The design is first constrained to the strategy (a battery in a
    renewables-only run is zeroed, etc.) so callers can sweep one grid
    across all four strategies.
    """
    design = design.constrained_to(strategy)
    solar_mw = design.investment.solar_mw
    wind_mw = design.investment.wind_mw
    with span(
        "evaluate_design",
        strategy=strategy.value,
        site=context.site_state,
        solar_mw=solar_mw,
        wind_mw=wind_mw,
        battery_mwh=design.battery_mwh,
        extra_capacity=design.extra_capacity_fraction,
    ):
        demand_power = context.demand.power
        moved_mwh = 0.0
        battery_cycles_per_day = 0.0

        if strategy is Strategy.RENEWABLES_ONLY:
            # Raw year-length arrays: no combined-supply LRU entry and no
            # HourlySeries per intermediate (the tail checks finiteness).
            solar_trace, wind_trace = context.supply_cache.axis_traces(
                solar_mw, wind_mw
            )
            if solar_trace.calendar != demand_power.calendar:
                raise ValueError(
                    "cannot combine series on different calendars: "
                    f"{demand_power.calendar.year} vs {solar_trace.calendar.year}"
                )
            supply = np.add(solar_trace.values, wind_trace.values)
            grid_import = np.clip(demand_power.values - supply, 0.0, None)
            surplus = np.clip(supply - demand_power.values, 0.0, None)
        else:
            solar_trace, wind_trace, supply_series = context.supply_cache.project(
                solar_mw, wind_mw
            )
            capacity_mw = demand_power.max() * (1.0 + design.extra_capacity_fraction)
            if strategy is Strategy.RENEWABLES_BATTERY:
                seed = context.battery_seed_cache.seed_for(
                    (solar_mw, wind_mw), supply_series.values
                )
                result = simulate_battery(
                    demand_power, supply_series, design.battery_spec(), seed=seed
                )
                grid_import = result.grid_import.values
                surplus = result.surplus.values
                battery_cycles_per_day = result.cycles_per_day()
            elif strategy is Strategy.RENEWABLES_CAS:
                result = schedule_carbon_aware(
                    demand_power,
                    supply_series,
                    context.grid_intensity,
                    capacity_mw=capacity_mw,
                    flexible_ratio=design.flexible_ratio,
                )
                shifted = result.shifted_demand.values
                grid_import = np.clip(shifted - supply_series.values, 0.0, None)
                surplus = np.clip(supply_series.values - shifted, 0.0, None)
                moved_mwh = result.moved_mwh
            elif strategy is Strategy.RENEWABLES_BATTERY_CAS:
                result = simulate_combined(
                    demand_power,
                    supply_series,
                    design.battery_spec(),
                    capacity_mw=capacity_mw,
                    flexible_ratio=design.flexible_ratio,
                )
                grid_import = result.grid_import.values
                surplus = result.surplus.values
                moved_mwh = result.deferred_mwh
                battery_cycles_per_day = (
                    result.equivalent_full_cycles() / demand_power.calendar.n_days
                )
            else:  # pragma: no cover - exhaustive enum
                raise AssertionError(f"unhandled strategy {strategy}")

        return _finish_evaluation(
            context,
            design,
            strategy,
            solar_trace,
            wind_trace,
            grid_import,
            surplus,
            moved_mwh,
            battery_cycles_per_day,
        )


#: Smallest block (rows) routed through a batched kernel, per strategy;
#: a strategy missing here never batches.  Measured against the serial
#: kernels on a 2-vCPU Xeon VM (DESIGN.md, "Fallbacks"): the seeded
#: serial battery kernel skips each row's rail stretches on its own and
#: beats the lockstep kernel on the 20-80-row blocks per-site sweeps
#: produce; batched CAS wins 4-14x even at 8 rows; batched combined
#: breaks even near 160 rows.  ``REPRO_BATCH_MIN_ROWS`` replaces the
#: whole table (an env var reaches spawned workers, which a
#: monkeypatched module global would not).
_BATCH_MIN_ROWS = {
    Strategy.RENEWABLES_CAS: 8,
    Strategy.RENEWABLES_BATTERY_CAS: 160,
}

#: Deferral deadline for the combined battery + CAS strategy, hours.
COMBINED_DEADLINE_HOURS = 24


def batch_min_rows_override() -> Optional[int]:
    """``REPRO_BATCH_MIN_ROWS`` as a row count, or ``None`` when unset.

    Raises ``ValueError`` naming the variable unless it is a positive
    integer, so a typo fails where it is read instead of reaching a
    kernel as a silently clamped floor.
    """
    raw = os.environ.get("REPRO_BATCH_MIN_ROWS", "")
    if not raw:
        return None
    try:
        rows = int(raw)
    except ValueError:
        rows = 0
    if rows < 1:
        raise ValueError(
            f"REPRO_BATCH_MIN_ROWS must be a positive integer (rows), got {raw!r}"
        )
    return rows


def _batch_min_rows(strategy: Strategy) -> Optional[int]:
    """The block floor for ``strategy``; ``None`` means never batch."""
    if strategy is Strategy.RENEWABLES_ONLY:
        return None
    override = batch_min_rows_override()
    if override is not None:
        return override
    return _BATCH_MIN_ROWS.get(strategy)


def merges_sites(strategy: Strategy) -> bool:
    """Whether :func:`evaluate_block_sites` merges sites' blocks right now.

    True when the strategy's rows group across sites (:func:`_batch_groups`)
    *and* it has a floor under the current ``REPRO_BATCH_MIN_ROWS``.  Only
    then is a serial sweep round worth evaluating in one call; any other
    round evaluates and commits one chunk at a time.
    """
    return (
        strategy is not Strategy.RENEWABLES_CAS
        and _batch_min_rows(strategy) is not None
    )


def _finish_evaluation(
    context: SiteContext,
    design: DesignPoint,
    strategy: Strategy,
    solar_trace: HourlySeries,
    wind_trace: HourlySeries,
    grid_import: np.ndarray,
    surplus: np.ndarray,
    moved_mwh: float,
    battery_cycles_per_day: float,
) -> DesignEvaluation:
    """The strategy-independent carbon-accounting tail of every evaluation.

    Shared between the per-design path and the batched finishers so both
    run the identical operations on identical inputs.  ``grid_import`` and
    ``surplus`` are raw year-length rows; a non-finite hour raises the
    :class:`HourlySeries` constructor's error, as wrapping the rows would.
    Finite totals imply finite rows, so the elementwise scan runs only when
    a total is not finite (an overflowing sum of finite hours passes).
    """
    import_mwh = float(grid_import.sum())
    surplus_mwh = float(surplus.sum())
    if not (math.isfinite(import_mwh) and math.isfinite(surplus_mwh)) and not (
        np.isfinite(grid_import).all() and np.isfinite(surplus).all()
    ):
        raise ValueError("series values must be finite (no NaN/inf)")
    demand_power = context.demand.power
    operational = operational_carbon_tons_values(
        grid_import, context.grid_intensity.values
    )
    renewables_embodied = context.embodied.renewables_annual_tons(
        solar_trace, wind_trace
    )
    battery_embodied = context.embodied.battery_annual_tons(
        design.battery_spec(), cycles_per_day=max(battery_cycles_per_day, 1e-3)
    )
    servers_embodied = context.embodied.servers_annual_tons(
        _extra_servers(context, design.extra_capacity_fraction)
    )
    inc("designs_evaluated")
    return DesignEvaluation(
        design=design,
        strategy=strategy,
        coverage=coverage_from_import_values(demand_power.values, grid_import),
        operational_tons=operational,
        renewables_embodied_tons=renewables_embodied,
        battery_embodied_tons=battery_embodied,
        servers_embodied_tons=servers_embodied,
        grid_import_mwh=import_mwh,
        surplus_mwh=surplus_mwh,
        moved_mwh=moved_mwh,
        battery_cycles_per_day=battery_cycles_per_day,
    )


def _batch_cycles_per_day(design: DesignPoint, discharged_mwh, calendar) -> float:
    """Replicate ``BatterySimResult.cycles_per_day`` on a batch row."""
    usable = design.battery_spec().usable_mwh
    if is_exact_zero(usable):
        cycles = 0.0
    else:
        cycles = float(discharged_mwh) / usable
    return cycles / calendar.n_days


def _batch_preconditions_hold(
    context: SiteContext, designs: Sequence[DesignPoint]
) -> bool:
    """Whether the serial wrappers' validation would pass for every row.

    The batched kernels skip per-call validation, so any row that a
    serial wrapper would reject (negative demand, FWR outside [0, 1],
    capacity below the demand peak) sends the whole block down the
    per-design path, where the original error surfaces unchanged.
    """
    if context.demand.power.min() < 0:
        return False
    for design in designs:
        if not 0.0 <= design.flexible_ratio <= 1.0:
            return False
        if design.extra_capacity_fraction < 0.0:
            return False
    return True


def evaluate_block(
    context: SiteContext,
    designs: Sequence[DesignPoint],
    strategy: Strategy,
) -> List[DesignEvaluation]:
    """Evaluate one site's design block: a one-site :func:`evaluate_block_sites`."""
    return evaluate_block_sites([(context, designs)], strategy)[0]


def evaluate_block_sites(
    blocks: Sequence[Tuple[SiteContext, Sequence[DesignPoint]]],
    strategy: Strategy,
) -> List[List[DesignEvaluation]]:
    """Evaluate each site's design block, batching the design axis when it pays.

    The one routing function of every sweep.  Semantically identical to
    ``[[evaluate_design(context, d, strategy) for d in designs] for
    context, designs in blocks]`` — every returned float is bitwise-equal
    to the per-design result — but a block that reaches its strategy's
    :data:`_BATCH_MIN_ROWS` floor (``REPRO_BATCH_MIN_ROWS`` replaces the
    table) runs the year-long simulation loop *once* over a ``(D, H)``
    block (:mod:`repro.kernels.batch`) instead of once per design.
    Routing depends only on the strategy and the row counts:

    * ``RENEWABLES_ONLY`` blocks always run per design, before any other
      work: the strategy has no year loop to batch, and its per-design
      rows (two clips over year-length arrays) stay cache-resident where
      a ``(D, H)`` clip would not (DESIGN.md, "Tensorized evaluation");
    * ``RENEWABLES_CAS`` blocks batch per site from the floor;
    * ``RENEWABLES_BATTERY`` and ``RENEWABLES_BATTERY_CAS`` blocks of one
      hour count make one merged call of the lockstep combined kernel
      (battery rows at flexible ratio 0) once their rows together reach
      the floor: the kernel's per-hour cost is numpy dispatch overhead,
      nearly independent of the row count, so a fleet round pays it
      once, not once per site.  One block passes its ``(H,)`` demand;
      several pass their ``(S, H)`` traces and a row→site index (the
      kernel is row-wise lockstep, so a row never observes its
      neighbours).  A fleet mixing leap and non-leap years merges each
      hour count separately.  Battery has no default floor: every row's
      serial run is seeded from the context's battery seed cache, whose
      per-row rail fast-forward beats the lockstep kernel on per-site
      sweep blocks;
    * a block that violates a serial wrapper's preconditions, or whose
      projected supply has a negative hour, runs per design, so the
      wrapper's validation error surfaces exactly as before.

    Observability differences from the per-design path are deliberate
    and bounded: each batched kernel call emits one ``evaluate_block``
    span instead of D ``evaluate_design``/``simulate_*`` spans, and
    counts rows into ``designs_batched`` and the ``batch_rows_peak``
    gauge.  All simulation counters (``designs_evaluated``,
    ``battery_sims``, ``schedules_run``, ``combined_sims``, MWh/hour
    totals, …) match the per-design path exactly.
    """
    blocks = [(context, list(designs)) for context, designs in blocks]
    batched: List[Optional[List[DesignEvaluation]]] = [None] * len(blocks)
    floor_rows = _batch_min_rows(strategy)
    if floor_rows is not None:
        for members in _batch_groups(blocks, strategy):
            if sum(len(blocks[i][1]) for i in members) < floor_rows:
                continue
            ready = []
            for i in members:
                segment = _batch_segment(*blocks[i], strategy)
                if segment is not None:
                    ready.append((i, segment))
            if ready:
                runs = _evaluate_batched([segment for _, segment in ready], strategy)
                for (i, _), evaluations in zip(ready, runs):
                    batched[i] = evaluations
    return [
        evaluations
        if evaluations is not None
        else [evaluate_design(context, design, strategy) for design in designs]
        for (context, designs), evaluations in zip(blocks, batched)
    ]


#: One block ready for a batched kernel: its context, its designs
#: constrained to the strategy, and each design's supply projection.
_Segment = Tuple[SiteContext, List[DesignPoint], list]


def _batch_groups(
    blocks: Sequence[Tuple[SiteContext, List[DesignPoint]]], strategy: Strategy
) -> List[List[int]]:
    """Indices of the non-empty blocks that may share one kernel call.

    Battery and combined rows run one lockstep kernel that takes several
    sites' rows, so their blocks group by hour count.  CAS blocks batch
    one site at a time: ``schedule_run_batch`` walks one greedy order
    taken from a site's intensity trace.
    """
    members = [i for i, (_, designs) in enumerate(blocks) if designs]
    if strategy is Strategy.RENEWABLES_CAS:
        return [[i] for i in members]
    groups: Dict[int, List[int]] = {}
    for i in members:
        n_hours = blocks[i][0].demand.power.calendar.n_hours
        groups.setdefault(n_hours, []).append(i)
    return list(groups.values())


def _batch_segment(
    context: SiteContext, designs: Sequence[DesignPoint], strategy: Strategy
) -> Optional[_Segment]:
    """The block as a batch segment, or ``None`` if it must run per design."""
    constrained = [design.constrained_to(strategy) for design in designs]
    if not _batch_preconditions_hold(context, constrained):
        return None
    projections = [
        context.supply_cache.project(d.investment.solar_mw, d.investment.wind_mw)
        for d in constrained
    ]
    if min(float(supply.values.min()) for _, _, supply in projections) < 0.0:
        return None
    return context, constrained, projections


def _evaluate_batched(
    segments: Sequence[_Segment], strategy: Strategy
) -> List[List[DesignEvaluation]]:
    """One batched kernel call over every row of ``segments``, per segment."""
    designs = [d for _, constrained, _ in segments for d in constrained]
    n_rows = len(designs)
    supply_block = np.stack(
        [supply.values for _, _, rows in segments for _, _, supply in rows]
    )
    specs = [d.battery_spec() for d in designs]
    row_capacities: List[float] = []
    for context, constrained, _ in segments:
        peak = context.demand.power.max()
        row_capacities.extend(
            peak * (1.0 + d.extra_capacity_fraction) for d in constrained
        )
    capacities = np.array(row_capacities)
    # One site passes its (H,) demand; several pass their (S, H) traces
    # and the row -> site index.
    sizes = [len(constrained) for _, constrained, _ in segments]
    offsets = np.cumsum([0] + sizes[:-1]).tolist()
    if len(segments) == 1:
        demand, row_sites = segments[0][0].demand.power.values, None
    else:
        demand = np.stack([context.demand.power.values for context, _, _ in segments])
        row_sites = np.repeat(np.arange(len(segments)), sizes)

    with span(
        "evaluate_block",
        strategy=strategy.value,
        sites=[context.site_state for context, _, _ in segments],
        n_designs=n_rows,
    ):
        inc("designs_batched", n_rows)
        set_gauge("batch_rows_peak", max(gauge_value("batch_rows_peak"), n_rows))

        if strategy is not Strategy.RENEWABLES_CAS:
            # Battery and combined rows share one lockstep kernel (a
            # battery block is a combined block at flexible ratio 0).
            if strategy is Strategy.RENEWABLES_BATTERY:
                run = battery_run_batch(
                    demand,
                    supply_block,
                    **_battery_columns(specs),
                    row_sites=row_sites,
                    planes=False,
                )
                finish = _finish_battery_rows
            else:
                run = combined_run_batch(
                    demand,
                    supply_block,
                    **_battery_columns(specs),
                    capacity_mw=capacities,
                    flexible_ratio=np.array([d.flexible_ratio for d in designs]),
                    deadline_hours=COMBINED_DEADLINE_HOURS,
                    row_sites=row_sites,
                    planes=False,
                )
                finish = _finish_combined_rows
            return [
                finish(*segment, run, offset)
                for segment, offset in zip(segments, offsets)
            ]

        # CAS blocks batch one site at a time (_batch_groups), and
        # schedule_run_batch shares one 24-hour FWR profile across the
        # block, so rows are grouped by their exact flexible_ratio (sweep
        # grids almost always hold it constant — one group).
        ((context, constrained, projections),) = segments
        demand_power = context.demand.power
        evaluations: List[Optional[DesignEvaluation]] = [None] * n_rows
        groups: Dict[float, List[int]] = {}
        for i, design in enumerate(constrained):
            groups.setdefault(design.flexible_ratio, []).append(i)
        for ratio, rows in groups.items():
            shifted_rows = schedule_run_batch(
                demand_power.values,
                supply_block[rows] if len(rows) < n_rows else supply_block,
                context.grid_intensity.values,
                capacities[rows],
                np.full(HOURS_PER_DAY, float(ratio)),
            )
            for j, i in enumerate(rows):
                shifted = shifted_rows.shifted[j]
                supply = supply_block[i]
                inc("schedules_run")
                inc("schedule_days", demand_power.calendar.n_days)
                inc("schedule_moved_mwh", float(shifted_rows.moved_mwh[j]))
                evaluations[i] = _finish_evaluation(
                    context,
                    constrained[i],
                    strategy,
                    projections[i][0],
                    projections[i][1],
                    np.clip(shifted - supply, 0.0, None),
                    np.clip(supply - shifted, 0.0, None),
                    float(shifted_rows.moved_mwh[j]),
                    0.0,
                )
        return [[evaluation for evaluation in evaluations if evaluation is not None]]


def _battery_columns(specs) -> Dict[str, np.ndarray]:
    """Per-row battery parameter columns of a battery or combined block.

    ``initial_energy_mwh`` replicates the serial wrappers' default
    ``initial_soc=1.0`` arithmetic (``floor + soc * (cap - floor)``)
    bitwise.
    """
    caps = np.array([spec.capacity_mwh for spec in specs])
    floors = np.array([spec.floor_mwh for spec in specs])
    return dict(
        capacity_mwh=caps,
        floor_mwh=floors,
        max_charge_mw=np.array([spec.max_charge_mw for spec in specs]),
        max_discharge_mw=np.array([spec.max_discharge_mw for spec in specs]),
        charge_efficiency=np.array(
            [spec.chemistry.charge_efficiency for spec in specs]
        ),
        discharge_efficiency=np.array(
            [spec.chemistry.discharge_efficiency for spec in specs]
        ),
        initial_energy_mwh=floors + 1.0 * (caps - floors),
    )


def _finish_battery_rows(
    context: SiteContext,
    designs: Sequence[DesignPoint],
    projections,
    run,
    offset: int,
) -> List[DesignEvaluation]:
    """Carbon-account one site's rows of a batched battery run."""
    calendar = context.demand.power.calendar
    n_hours = calendar.n_hours
    out: List[DesignEvaluation] = []
    for j, design in enumerate(designs):
        i = offset + j
        inc("battery_sims")
        inc("battery_sim_hours", n_hours)
        out.append(
            _finish_evaluation(
                context,
                design,
                Strategy.RENEWABLES_BATTERY,
                projections[j][0],
                projections[j][1],
                run.grid_import[i],
                run.surplus[i],
                0.0,
                _batch_cycles_per_day(design, run.discharged_mwh[i], calendar),
            )
        )
    return out


def _finish_combined_rows(
    context: SiteContext,
    designs: Sequence[DesignPoint],
    projections,
    run,
    offset: int,
) -> List[DesignEvaluation]:
    """Carbon-account one site's rows of a batched combined run."""
    calendar = context.demand.power.calendar
    n_hours = calendar.n_hours
    out: List[DesignEvaluation] = []
    for j, design in enumerate(designs):
        i = offset + j
        inc("combined_sims")
        inc("combined_sim_hours", n_hours)
        inc("schedule_deferrals", int(run.deferral_events[i]))
        inc("combined_deferred_mwh", float(run.deferred_mwh[i]))
        out.append(
            _finish_evaluation(
                context,
                design,
                Strategy.RENEWABLES_BATTERY_CAS,
                projections[j][0],
                projections[j][1],
                run.grid_import[i],
                run.surplus[i],
                float(run.deferred_mwh[i]),
                _batch_cycles_per_day(design, run.discharged_mwh[i], calendar),
            )
        )
    return out
