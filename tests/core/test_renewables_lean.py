"""The raw-array renewables-only evaluation against the HourlySeries formula.

``evaluate_design(..., RENEWABLES_ONLY)`` computes supply, imports and
surplus on raw year-length arrays and accounts them through the shared
array tail.  The oracle below is a verbatim copy of the HourlySeries
branch and tail it replaced; every outcome -- each field of the
evaluation, or the error raised -- must match it exactly.
"""

from __future__ import annotations

import math
import pickle
from collections import Counter
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.carbon import operational_carbon_tons, operational_carbon_tons_values
from repro.core.coverage import coverage_from_grid_import, coverage_from_import_values
from repro.core import evaluate as evaluate_module
from repro.core.design import DesignPoint, Strategy, default_design_space
from repro.core.evaluate import (
    DesignEvaluation,
    SiteContext,
    _extra_servers,
    _finish_evaluation,
    build_site_context,
    evaluate_block,
    evaluate_design,
)
from repro.core.shm import share_context
from repro.grid import RenewableInvestment, scale_trace_to_capacity
from repro.obs import disable_metrics, enable_metrics, get_registry, reset_metrics
from repro.timeseries import HourlySeries
from repro.timeseries.stats import is_exact_zero

ONLY = Strategy.RENEWABLES_ONLY

#: (state, year): UT has wind and solar, AL solar only; 2020 has 8784
#: hours, 2021 has 8760.
SITES = (("UT", 2020), ("UT", 2021), ("AL", 2020), ("AL", 2021))


# ----------------------------------------------------------------------
# The oracle: the HourlySeries code the raw-array path replaced.
# ----------------------------------------------------------------------
def _old_constrained_to(design: DesignPoint, strategy: Strategy) -> DesignPoint:
    point = design
    if not strategy.uses_battery:
        point = replace(point, battery_mwh=0.0)
    if not strategy.uses_scheduling:
        point = replace(point, extra_capacity_fraction=0.0, flexible_ratio=0.0)
    return point


def _old_operational_carbon_tons(grid_import, grid_intensity) -> float:
    if grid_import.calendar != grid_intensity.calendar:
        raise ValueError("grid_import and grid_intensity must share a calendar")
    if grid_import.min() < 0:
        raise ValueError("grid imports must be non-negative")
    grams = float((grid_import.values * 1000.0 * grid_intensity.values).sum())
    return grams / 1e6


def _old_coverage_from_grid_import(demand, grid_import) -> float:
    if demand.calendar != grid_import.calendar:
        raise ValueError("demand and grid_import must share a calendar")
    if grid_import.min() < 0:
        raise ValueError("grid import must be non-negative")
    total_demand = demand.total()
    if is_exact_zero(total_demand):
        raise ValueError("coverage undefined for zero total demand")
    coverage = 1.0 - grid_import.total() / total_demand
    if coverage < -1e-9:
        raise ValueError("grid import exceeds total demand: inconsistent traces")
    return max(coverage, 0.0)


def _old_finish_evaluation(
    context, design, strategy, solar_trace, wind_trace, grid_import, surplus,
    moved_mwh, battery_cycles_per_day,
) -> DesignEvaluation:
    demand_power = context.demand.power
    operational = _old_operational_carbon_tons(grid_import, context.grid_intensity)
    renewables_embodied = context.embodied.renewables_annual_tons(
        solar_trace, wind_trace
    )
    battery_embodied = context.embodied.battery_annual_tons(
        design.battery_spec(), cycles_per_day=max(battery_cycles_per_day, 1e-3)
    )
    servers_embodied = context.embodied.servers_annual_tons(
        _extra_servers(context, design.extra_capacity_fraction)
    )
    return DesignEvaluation(
        design=design,
        strategy=strategy,
        coverage=_old_coverage_from_grid_import(demand_power, grid_import),
        operational_tons=operational,
        renewables_embodied_tons=renewables_embodied,
        battery_embodied_tons=battery_embodied,
        servers_embodied_tons=servers_embodied,
        grid_import_mwh=grid_import.total(),
        surplus_mwh=surplus.total(),
        moved_mwh=moved_mwh,
        battery_cycles_per_day=battery_cycles_per_day,
    )


def oracle_renewables_only(context: SiteContext, design: DesignPoint) -> DesignEvaluation:
    design = _old_constrained_to(design, ONLY)
    demand_power = context.demand.power
    solar_trace = scale_trace_to_capacity(context.grid.solar, design.investment.solar_mw)
    wind_trace = scale_trace_to_capacity(context.grid.wind, design.investment.wind_mw)
    supply = (solar_trace + wind_trace).with_name("renewable supply")
    grid_import = (demand_power - supply).positive_part()
    surplus = (supply - demand_power).positive_part()
    return _old_finish_evaluation(
        context, design, ONLY, solar_trace, wind_trace, grid_import, surplus, 0.0, 0.0
    )


def outcome(fn, *args):
    """``("ok", repr of every field)`` or ``("error", type, message)``."""
    try:
        result = fn(*args)
    except (ValueError, ArithmeticError) as exc:
        return ("error", type(exc).__name__, str(exc))
    return ("ok", repr(astuple(result)))


def fresh(context: SiteContext) -> SiteContext:
    """The same site with empty supply caches."""
    return SiteContext(context.demand, context.grid, context.grid_intensity)


@pytest.fixture(scope="module")
def contexts():
    return {site: build_site_context(site[0], year=site[1]) for site in SITES}


def design_of(solar_mw, wind_mw, **fields) -> DesignPoint:
    return DesignPoint(
        investment=RenewableInvestment(solar_mw=solar_mw, wind_mw=wind_mw), **fields
    )


# ----------------------------------------------------------------------
# Equality with the oracle
# ----------------------------------------------------------------------
capacity = st.one_of(st.just(0.0), st.floats(0.0, 400.0), st.floats(0.0, 1e6))


@settings(max_examples=80, deadline=None)
@given(
    site=st.sampled_from(SITES),
    solar_mw=capacity,
    wind_mw=capacity,
    battery_mwh=st.sampled_from([0.0, -0.0, 0, 50.0]),
    extra=st.sampled_from([0.0, -0.0, 0.5]),
    flexible=st.sampled_from([0.0, 0.4]),
)
def test_evaluate_design_equals_hourly_series_formula(
    contexts, site, solar_mw, wind_mw, battery_mwh, extra, flexible
):
    context = contexts[site]
    if not context.supports_wind:
        wind_mw = 0.0
    design = design_of(
        solar_mw,
        wind_mw,
        battery_mwh=battery_mwh,
        extra_capacity_fraction=extra,
        flexible_ratio=flexible,
    )
    expected = outcome(oracle_renewables_only, context, design)
    assert expected[0] == "ok"
    assert outcome(evaluate_design, context, design, ONLY) == expected


@pytest.mark.parametrize(
    "site, multiples",
    [
        (site, multiples)
        for site in SITES
        for multiples in ((0.0, 0.0), (3.0, 0.0), (0.0, 3.0), (2.0, 5.0))
        if site[0] == "UT" or is_exact_zero(multiples[1])  # AL has no wind
    ],
)
def test_zero_investment_axes(contexts, site, multiples):
    context = contexts[site]
    avg = context.demand.power.mean()
    solar_mw, wind_mw = (m * avg for m in multiples)
    design = design_of(solar_mw, wind_mw)
    expected = outcome(oracle_renewables_only, context, design)
    assert outcome(evaluate_design, fresh(context), design, ONLY) == expected
    block = evaluate_block(fresh(context), [design], ONLY)
    assert ("ok", repr(astuple(block[0]))) == expected


def test_wind_at_a_solar_only_site_raises_as_before(contexts):
    context = contexts[("AL", 2020)]
    design = design_of(10.0, 10.0)
    expected = outcome(oracle_renewables_only, context, design)
    assert expected[0] == "error"
    assert outcome(evaluate_design, fresh(context), design, ONLY) == expected


# ----------------------------------------------------------------------
# Errors and non-finite values
# ----------------------------------------------------------------------
def test_mismatched_calendars_raise_as_before(contexts):
    leap, common = contexts[("UT", 2020)], contexts[("UT", 2021)]
    context = SiteContext(common.demand, leap.grid, leap.grid_intensity)
    design = design_of(20.0, 30.0)
    expected = outcome(oracle_renewables_only, context, design)
    assert expected == (
        "error", "ValueError", "cannot combine series on different calendars: 2021 vs 2020"
    )
    assert outcome(evaluate_design, context, design, ONLY) == expected


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_non_finite_supply_raises_as_before(contexts):
    # Each axis trace is finite; their sum overflows to inf in some hours.
    context = contexts[("UT", 2020)]
    design = design_of(1.7e308, 1.7e308)
    expected = outcome(oracle_renewables_only, context, design)
    assert expected == ("error", "ValueError", "series values must be finite (no NaN/inf)")
    assert outcome(evaluate_design, fresh(context), design, ONLY) == expected


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_overflowing_total_of_finite_hours_still_evaluates(contexts):
    # Every hour is finite, so nothing raises; the surplus total is inf.
    context = contexts[("UT", 2021)]
    design = design_of(1e308, 0.0)
    expected = outcome(oracle_renewables_only, context, design)
    assert expected[0] == "ok" and "inf" in expected[1]
    assert outcome(evaluate_design, fresh(context), design, ONLY) == expected


def _tail_outcomes(context, grid_import, surplus):
    """New array tail vs the old tail on HourlySeries-wrapped rows."""
    design = design_of(0.0, 0.0)
    zeros = HourlySeries.zeros(context.demand.power.calendar)
    calendar = context.demand.power.calendar

    def old():
        return _old_finish_evaluation(
            context, design, ONLY, zeros, zeros,
            HourlySeries(grid_import, calendar, name="grid import"),
            HourlySeries(surplus, calendar, name="surplus"),
            0.0, 0.0,
        )

    def new():
        return _finish_evaluation(
            context, design, ONLY, grid_import, surplus, 0.0, 0.0
        )

    return outcome(new), outcome(old)


@pytest.mark.parametrize(
    "case, message",
    [
        ("exceeds_demand", "grid import exceeds total demand"),
        ("negative", "grid imports must be non-negative"),
        ("nan_import", "must be finite"),
        ("inf_surplus", "must be finite"),
    ],
)
def test_inconsistent_rows_raise_as_before(contexts, case, message):
    context = contexts[("UT", 2020)]
    demand = np.array(context.demand.power.values)
    grid_import = demand.copy()
    surplus = np.zeros_like(demand)
    if case == "exceeds_demand":
        grid_import *= 1.5
    elif case == "negative":
        grid_import[100] = -1.0
    elif case == "nan_import":
        grid_import[7] = math.nan
    else:
        surplus[0] = math.inf
    new, old = _tail_outcomes(context, grid_import, surplus)
    assert new == old
    assert new[0] == "error" and message in new[2]


def test_consistent_rows_match_the_old_tail(contexts):
    context = contexts[("UT", 2021)]
    demand = np.array(context.demand.power.values)
    new, old = _tail_outcomes(context, demand * 0.25, demand * 0.5)
    assert new == old and new[0] == "ok"


class TestArrayCores:
    """The array cores keep the wrappers' value checks and messages."""

    def test_zero_total_demand(self, calendar):
        zeros = HourlySeries.zeros(calendar)
        with pytest.raises(ValueError, match="zero total demand"):
            coverage_from_grid_import(zeros, zeros)
        with pytest.raises(ValueError, match="zero total demand"):
            coverage_from_import_values(zeros.values, zeros.values)

    def test_negative_import(self):
        gi = np.array([1.0, -1.0, 0.0])
        with pytest.raises(ValueError, match="grid import must be non-negative"):
            coverage_from_import_values(np.ones(3), gi)
        with pytest.raises(ValueError, match="grid imports must be non-negative"):
            operational_carbon_tons_values(gi, np.ones(3))

    def test_import_exceeding_demand(self):
        with pytest.raises(ValueError, match="exceeds total demand"):
            coverage_from_import_values(np.ones(4), np.full(4, 2.0))

    def test_length_check_replaces_calendar_check(self):
        with pytest.raises(ValueError, match="share a calendar"):
            coverage_from_import_values(np.ones(8784), np.zeros(8760))
        with pytest.raises(ValueError, match="share a calendar"):
            operational_carbon_tons_values(np.zeros(8760), np.ones(8784))

    def test_wrappers_equal_cores(self, ut_context):
        demand = ut_context.demand.power
        gi = (demand * 0.3).with_name("grid import")
        assert operational_carbon_tons(gi, ut_context.grid_intensity) == (
            operational_carbon_tons_values(gi.values, ut_context.grid_intensity.values)
        )
        assert coverage_from_grid_import(demand, gi) == coverage_from_import_values(
            demand.values, gi.values
        )


# ----------------------------------------------------------------------
# Cache traffic
# ----------------------------------------------------------------------
@pytest.fixture()
def counters():
    """A clean, enabled default registry; restored to disabled after."""
    reset_metrics()
    enable_metrics()
    yield get_registry()
    disable_metrics()
    reset_metrics()


def test_renewables_rows_bypass_the_combined_lru(contexts, counters):
    context = fresh(contexts[("UT", 2020)])
    designs = [design_of(s, w) for s in (0.0, 20.0, 40.0) for w in (0.0, 30.0)]
    evaluate_block(context, designs, ONLY)
    assert counters.counter_value("supply_cache_misses") == 0
    assert counters.counter_value("supply_cache_hits") == 0
    assert len(context.supply_cache._combined) == 0
    # A battery row still fills the LRU, reusing the per-axis traces.
    evaluate_design(context, design_of(20.0, 30.0, battery_mwh=10.0), Strategy.RENEWABLES_BATTERY)
    assert counters.counter_value("supply_cache_misses") == 1
    assert list(context.supply_cache._combined) == [(20.0, 30.0)]
    solar, wind = context.supply_cache.axis_traces(20.0, 30.0)
    cached_solar, cached_wind, supply = context.supply_cache.project(20.0, 30.0)
    assert solar is cached_solar and wind is cached_wind
    assert supply.name == "renewable supply"
    assert np.array_equal(supply.values, (solar + wind).values)


# ----------------------------------------------------------------------
# The accounting tail reads each distinct input once
# ----------------------------------------------------------------------
class _CountingRow(np.ndarray):
    """A row view that logs each year-length reduction taken of it.

    Arithmetic on the view returns the subclass, so the operational
    core's product row is counted too.
    """

    log: list = []

    def sum(self, *args, **kwargs):
        _CountingRow.log.append("sum")
        return super().sum(*args, **kwargs)

    def min(self, *args, **kwargs):
        _CountingRow.log.append("min")
        return super().min(*args, **kwargs)

    def max(self, *args, **kwargs):
        _CountingRow.log.append("max")
        return super().max(*args, **kwargs)

    def mean(self, *args, **kwargs):
        _CountingRow.log.append("mean")
        return super().mean(*args, **kwargs)


def test_tail_sums_each_distinct_input_once(contexts, monkeypatch):
    context = fresh(contexts[("UT", 2020)])
    space = default_design_space(
        context.demand.power.mean(),
        supports_solar=True,
        supports_wind=True,
        n_renewable_steps=30,
        battery_hours=(0.0,),
        extra_capacity_fractions=(0.0,),
    )
    designs = list(space.points(ONLY))
    assert len(designs) == 900

    totals = Counter()
    real_total = HourlySeries.total

    def counting_total(series):
        totals[id(series)] += 1
        return real_total(series)

    real_finish = evaluate_module._finish_evaluation

    def counting_finish(context, design, strategy, grid_import, surplus, *rest):
        return real_finish(
            context,
            design,
            strategy,
            grid_import.view(_CountingRow),
            surplus.view(_CountingRow),
            *rest,
        )

    monkeypatch.setattr(HourlySeries, "total", counting_total)
    monkeypatch.setattr(evaluate_module, "_finish_evaluation", counting_finish)
    monkeypatch.setattr(_CountingRow, "log", [])
    evaluations = evaluate_block(context, designs, ONLY)
    assert len(evaluations) == 900

    cache = context.supply_cache
    solar, wind = list(cache._solar.values()), list(cache._wind.values())
    assert len(solar) == len(wind) == 30
    expected = Counter({id(trace): 1 for trace in solar + wind})
    expected[id(context.demand.power)] = 1
    assert totals == expected
    assert Counter(_CountingRow.log) == {"sum": 3 * 900, "min": 900}


KEYING_STRATEGIES = (ONLY, Strategy.RENEWABLES_BATTERY, Strategy.RENEWABLES_CAS)


def _shared_outcomes(context, designs):
    """Every design's outcome on ``context`` under each keying strategy."""
    return [
        outcome(evaluate_design, context, design, strategy)
        for design in designs
        for strategy in KEYING_STRATEGIES
    ]


@pytest.mark.parametrize("site", SITES)
def test_cached_totals_match_a_fresh_context(contexts, site):
    context = fresh(contexts[site])
    avg = context.demand.power.mean()
    wind_axis = (0.0, 2.0 * avg) if context.supports_wind else (0.0,)
    designs = [
        design_of(solar, wind, battery_mwh=2.0 * avg)
        for solar in (0.0, 3.0 * avg)
        for wind in wind_axis
    ]
    # Each design on a context of its own, so nothing is reused.
    expected = [
        outcome(evaluate_design, fresh(context), design, strategy)
        for design in designs
        for strategy in KEYING_STRATEGIES
    ]
    assert all(result[0] == "ok" for result in expected)
    for design in designs:
        assert outcome(evaluate_design, context, design, ONLY) == outcome(
            oracle_renewables_only, context, design
        )
    # The warm context's totals are memoized, and stay out of a pickle.
    assert _shared_outcomes(context, designs) == expected
    assert "_total_demand_mwh" in context.__dict__
    assert context.supply_cache._solar_totals
    state = context.__getstate__()
    assert "_total_demand_mwh" not in state and "_supply_cache" not in state
    clone = pickle.loads(pickle.dumps(context))
    assert "_total_demand_mwh" not in clone.__dict__
    assert _shared_outcomes(clone, designs) == expected
    with share_context(context) as shared:
        attached = shared.handle.attach()
        assert _shared_outcomes(attached, designs) == expected


@pytest.mark.parametrize(
    "strategy",
    [Strategy.RENEWABLES_BATTERY, Strategy.RENEWABLES_CAS, Strategy.RENEWABLES_BATTERY_CAS],
)
@pytest.mark.parametrize("floor", ["1", "1000000"], ids=["batched", "per-design"])
def test_kernel_rows_through_the_tail_match_the_old_tail(
    contexts, counters, monkeypatch, strategy, floor
):
    monkeypatch.setenv("REPRO_BATCH_MIN_ROWS", floor)
    context = fresh(contexts[("UT", 2021)])
    calendar = context.demand.power.calendar
    avg = context.demand.power.mean()
    designs = [
        design_of(solar, wind, battery_mwh=battery, extra_capacity_fraction=0.5,
                  flexible_ratio=0.4)
        for solar in (0.0, 4.0 * avg)
        for wind in (1.0 * avg, 3.0 * avg)
        for battery in (0.0, 5.0 * avg)
    ]
    rows = []
    real_finish = evaluate_module._finish_evaluation

    def capturing_finish(context, design, strategy, grid_import, surplus, *rest):
        result = outcome(
            real_finish, context, design, strategy, grid_import, surplus, *rest
        )
        rows.append((design, grid_import.copy(), surplus.copy(), rest, result))
        return real_finish(context, design, strategy, grid_import, surplus, *rest)

    monkeypatch.setattr(evaluate_module, "_finish_evaluation", capturing_finish)
    evaluations = evaluate_block(context, designs, strategy)
    assert len(rows) == len(evaluations) == len(designs)
    batched = counters.counter_value("designs_batched")
    assert batched == (len(designs) if floor == "1" else 0)
    for design, grid_import, surplus, rest, result in rows:
        assert result[0] == "ok"
        expected = outcome(
            _old_finish_evaluation,
            context,
            design,
            strategy,
            scale_trace_to_capacity(context.grid.solar, design.investment.solar_mw),
            scale_trace_to_capacity(context.grid.wind, design.investment.wind_mw),
            HourlySeries(grid_import, calendar, name="grid import"),
            HourlySeries(surplus, calendar, name="surplus"),
            *rest,
        )
        assert result == expected


def test_positive_part_is_clip_bitwise():
    tiny = np.finfo(np.float64).tiny
    lanes = np.array(
        [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324,
         tiny / 2, -tiny / 2, tiny, -tiny, 1.0, -1.0, 1.7e308, -1.7e308]
    )
    # Lengths off the SIMD width exercise the vector loops' tails.
    for values in (lanes, lanes[::-1], np.tile(lanes, 37), lanes[:-3]):
        expected = np.clip(values, 0.0, None).view(np.uint64)
        assert np.array_equal(np.maximum(values, 0.0).view(np.uint64), expected)
        scratch = values.copy()
        assert np.maximum(scratch, 0.0, out=scratch) is scratch
        assert np.array_equal(scratch.view(np.uint64), expected)
