"""Tests for the Fig. 12 capacity-planning helpers."""

import dataclasses
import importlib.util
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.obs import (
    disable_metrics,
    disable_tracing,
    enable_metrics,
    enable_tracing,
    metrics_snapshot,
    reset_metrics,
    reset_tracing,
    trace_roots,
)
from repro.scheduling import (
    additional_capacity_for_full_coverage,
    deficit_after_scheduling,
    schedule_carbon_aware,
)
from repro.scheduling.capacity import MAX_CAPACITY_MULTIPLE
from repro.timeseries import DEFAULT_CALENDAR, HOURS_PER_DAY, HourlySeries, YearCalendar
from repro.timeseries.stats import is_exact_zero

PERFBENCH = Path(__file__).resolve().parents[2] / "perfbench"


def bisection_over_full_years(
    demand,
    supply,
    intensity,
    flexible_ratio=1.0,
    tolerance_mwh=1.0,
    max_multiple=MAX_CAPACITY_MULTIPLE,
):
    """The search as it was before the seeded predicate, verbatim: every
    step schedules the whole year and totals the deficit."""
    if tolerance_mwh <= 0:
        raise ValueError(f"tolerance_mwh must be positive, got {tolerance_mwh}")
    if max_multiple < 1.0:
        raise ValueError(f"max_multiple must be >= 1, got {max_multiple}")

    base_peak = demand.max()
    if is_exact_zero(base_peak):
        raise ValueError("demand trace is identically zero")

    def deficit(multiple: float) -> float:
        return deficit_after_scheduling(
            demand, supply, intensity, base_peak * multiple, flexible_ratio
        )

    if deficit(1.0) <= tolerance_mwh:
        return 0.0
    if deficit(max_multiple) > tolerance_mwh:
        return float("inf")

    low, high = 1.0, max_multiple
    # Bisect until the capacity bracket is tight to ~0.1% of the peak.
    while high - low > 1e-3:
        mid = (low + high) / 2.0
        if deficit(mid) > tolerance_mwh:
            low = mid
        else:
            high = mid
    return high - 1.0


@pytest.fixture()
def generous_day_supply():
    """Daytime supply big enough that each day's energy covers demand."""
    profile = [0.0] * 8 + [40.0] * 8 + [0.0] * 8
    return HourlySeries.from_daily_profile(profile, DEFAULT_CALENDAR)


@pytest.fixture()
def intensity(generous_day_supply):
    values = np.where(generous_day_supply.values > 0.0, 50.0, 600.0)
    return HourlySeries(values, DEFAULT_CALENDAR)


class TestDeficitAfterScheduling:
    def test_decreases_with_capacity(self, flat_demand, generous_day_supply, intensity):
        deficits = [
            deficit_after_scheduling(
                flat_demand, generous_day_supply, intensity, flat_demand.max() * m, 1.0
            )
            for m in (1.0, 1.5, 2.5)
        ]
        assert deficits[0] >= deficits[1] >= deficits[2]


class TestAdditionalCapacity:
    def test_finite_when_daily_energy_sufficient(
        self, flat_demand, generous_day_supply, intensity
    ):
        extra = additional_capacity_for_full_coverage(
            flat_demand, generous_day_supply, intensity, flexible_ratio=1.0
        )
        # 240 MWh/day demand vs 320 MWh/day of daytime supply: all load must
        # run in 8 daylight hours -> 30 MW -> about 2x the ~10 MW peak.
        assert 1.5 < extra < 2.5

    def test_infinite_when_supply_valley_days_exist(self, flat_demand, intensity):
        """A day with zero supply can never be covered by within-day shifts."""
        supply = HourlySeries.from_daily_profile(
            [0.0] * 8 + [40.0] * 8 + [0.0] * 8, DEFAULT_CALENDAR
        )
        dead_day = supply.replace_days([np.zeros(24)], [100])
        assert (
            additional_capacity_for_full_coverage(
                flat_demand, dead_day, intensity, flexible_ratio=1.0
            )
            == float("inf")
        )

    def test_zero_when_already_covered(self, flat_demand, intensity):
        abundant = HourlySeries.constant(15.0, DEFAULT_CALENDAR)
        assert (
            additional_capacity_for_full_coverage(
                flat_demand, abundant, intensity, flexible_ratio=1.0
            )
            == 0.0
        )

    def test_lower_flexibility_needs_more_or_fails(
        self, flat_demand, generous_day_supply, intensity
    ):
        full = additional_capacity_for_full_coverage(
            flat_demand, generous_day_supply, intensity, flexible_ratio=1.0
        )
        half = additional_capacity_for_full_coverage(
            flat_demand, generous_day_supply, intensity, flexible_ratio=0.5
        )
        assert half >= full or half == float("inf")

    def test_validation(self, flat_demand, generous_day_supply, intensity):
        with pytest.raises(ValueError):
            additional_capacity_for_full_coverage(
                flat_demand, generous_day_supply, intensity, tolerance_mwh=0.0
            )
        with pytest.raises(ValueError):
            additional_capacity_for_full_coverage(
                flat_demand, generous_day_supply, intensity, max_multiple=0.5
            )


def random_year(year, seed, supply_scale):
    """Noisy demand against a daylight-only supply on partly cloudy days;
    the grid is clean exactly when the sun shines."""
    calendar = YearCalendar(year)
    rng = np.random.default_rng(seed)
    n_hours = calendar.n_hours
    demand = rng.uniform(8.0, 12.0, n_hours)
    daylight = np.tile(np.r_[np.zeros(7), np.ones(10), np.zeros(7)], calendar.n_days)
    cloudy = np.repeat(rng.uniform(0.5, 1.0, calendar.n_days), HOURS_PER_DAY)
    supply = supply_scale * daylight * cloudy * rng.uniform(0.8, 1.0, n_hours)
    intensity = np.where(
        daylight > 0.0,
        rng.choice([50.0, 90.0], n_hours),
        rng.choice([400.0, 650.0], n_hours),
    )
    return (
        HourlySeries(demand, calendar),
        HourlySeries(supply, calendar),
        HourlySeries(intensity, calendar),
    )


class TestSeededSearchEqualsFullYearSearch:
    @pytest.mark.parametrize(
        "year, seed, supply_scale, flexible_ratio, tolerance_mwh, expect",
        [
            (2020, 1, 70.0, 1.0, 1.0, "finite"),
            (2021, 3, 60.0, 1.0, 1.0, "finite"),
            (2021, 4, 52.0, 1.0, 250.0, "finite"),
            (2021, 5, 70.0, [1.0] * 7 + [0.3] * 10 + [1.0] * 7, 1.0, "finite"),
            (2020, 8, 200.0, 1.0, 1.0, "finite"),
            (2020, 6, 60.0, 0.4, 1.0, "inf"),
            (2021, 7, 90.0, 0.0, 1e9, "zero"),
        ],
    )
    def test_same_answer_bitwise(
        self, year, seed, supply_scale, flexible_ratio, tolerance_mwh, expect
    ):
        demand, supply, intensity = random_year(year, seed, supply_scale)
        kwargs = dict(flexible_ratio=flexible_ratio, tolerance_mwh=tolerance_mwh)
        got = additional_capacity_for_full_coverage(demand, supply, intensity, **kwargs)
        want = bisection_over_full_years(demand, supply, intensity, **kwargs)
        assert got == want
        kind = "inf" if math.isinf(got) else "zero" if is_exact_zero(got) else "finite"
        assert kind == expect

    def test_fixture_answers_unchanged(self, flat_demand, generous_day_supply, intensity):
        for fwr in (1.0, 0.5):
            assert additional_capacity_for_full_coverage(
                flat_demand, generous_day_supply, intensity, flexible_ratio=fwr
            ) == bisection_over_full_years(
                flat_demand, generous_day_supply, intensity, flexible_ratio=fwr
            )

    def test_one_span_and_one_probe_count_per_step(
        self, flat_demand, generous_day_supply, intensity
    ):
        reset_metrics()
        reset_tracing()
        enable_metrics()
        enable_tracing()
        try:
            additional_capacity_for_full_coverage(
                flat_demand, generous_day_supply, intensity, flexible_ratio=1.0
            )
            probes = metrics_snapshot()["counters"]["cas_capacity_probes"]
            roots = [root.name for root in trace_roots()]
        finally:
            disable_metrics()
            disable_tracing()
            reset_metrics()
            reset_tracing()
        # Two bracket probes plus ceil(log2(7 / 1e-3)) = 13 bisection steps.
        assert probes == 15
        assert roots == ["additional_capacity_for_full_coverage"]


def load_benchmark_workloads():
    """``perfbench/workloads.py``, the one definition of the probe grid."""
    name = "perfbench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, PERFBENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # dataclasses resolve their module by name
        spec.loader.exec_module(module)
    return sys.modules[name]


def test_known_cas_answers_at_every_site():
    """The benchmark's committed Fig. 12 answers (seed 0, all 13 sites)."""
    workloads = load_benchmark_workloads()
    with open(PERFBENCH / "known_answers.json") as handle:
        known = json.load(handle)["seeds"]["0"]["probe"]
    probe = dataclasses.replace(workloads.WORKLOADS["coverage_probe"], sites=())
    prepared = workloads.prepare(probe, 0)
    assert len(prepared.explorers) == 13
    for explorer, investments in zip(prepared.explorers, prepared.investments):
        got = [explorer.additional_capacity_for_full_coverage(i) for i in investments]
        assert got == [pair[1] for pair in known[explorer.state]], explorer.state


class TestNonFiniteInputs:
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_tolerance_must_be_finite(self, value, flat_demand, generous_day_supply, intensity):
        with pytest.raises(ValueError, match="tolerance_mwh"):
            additional_capacity_for_full_coverage(
                flat_demand, generous_day_supply, intensity, tolerance_mwh=value
            )

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_max_multiple_must_be_finite(
        self, value, flat_demand, generous_day_supply, intensity
    ):
        with pytest.raises(ValueError, match="max_multiple"):
            additional_capacity_for_full_coverage(
                flat_demand, generous_day_supply, intensity, max_multiple=value
            )

    @pytest.mark.parametrize("fwr", [math.nan, math.inf, [0.5] * 23 + [math.nan]])
    def test_non_finite_flexible_ratio_rejected(
        self, fwr, flat_demand, generous_day_supply, intensity
    ):
        with pytest.raises(ValueError, match="flexible_ratio"):
            schedule_carbon_aware(
                flat_demand, generous_day_supply, intensity, 20.0, fwr
            )
        with pytest.raises(ValueError, match="flexible_ratio"):
            additional_capacity_for_full_coverage(
                flat_demand, generous_day_supply, intensity, flexible_ratio=fwr
            )

    def test_nan_capacity_rejected(self, flat_demand, generous_day_supply, intensity):
        with pytest.raises(ValueError, match="capacity"):
            schedule_carbon_aware(
                flat_demand, generous_day_supply, intensity, math.nan, 1.0
            )

    def test_infinite_capacity_stays_legal(
        self, flat_demand, generous_day_supply, intensity
    ):
        unlimited = schedule_carbon_aware(
            flat_demand, generous_day_supply, intensity, math.inf, 1.0
        )
        assert unlimited.capacity_mw == math.inf
        assert unlimited.moved_mwh > 0.0
