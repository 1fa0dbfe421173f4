"""Property tests: the seeded greedy CAS kernel and its deficit predicate.

:class:`ScheduleSeed` hoists everything capacity-independent out of
:func:`schedule_run`, and :func:`schedule_deficit_exceeds` answers the
Fig. 12 search question ("does this capacity still leave a deficit above
the tolerance?") with an early exit.  Both must reproduce the full-year
arithmetic exactly, so every comparison below is exact (``np.array_equal``,
``==``) — no tolerances.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import (
    ScheduleSeed,
    schedule_deficit_exceeds,
    schedule_run,
    schedule_run_seeded,
)
from repro.kernels import greedy as greedy_kernel
from repro.timeseries import HOURS_PER_DAY, YearCalendar

N_DAYS = 3
N_HOURS = N_DAYS * HOURS_PER_DAY

#: Scalar FWRs 0, 0.4 and 1 plus an hour-of-day profile that is zero in
#: the small hours (nothing movable there) and partial elsewhere.
PROFILE_24 = np.array([0.0] * 6 + [0.25] * 6 + [0.8] * 6 + [1.0] * 6)
PROFILES = {
    "fwr0": np.full(HOURS_PER_DAY, 0.0),
    "fwr0.4": np.full(HOURS_PER_DAY, 0.4),
    "fwr1": np.full(HOURS_PER_DAY, 1.0),
    "profile24": PROFILE_24,
}


def trace(low, high, n_hours=N_HOURS):
    return st.lists(
        st.floats(low, high, allow_nan=False), min_size=n_hours, max_size=n_hours
    ).map(np.array)


#: Intensities drawn from a small pool so that ties (stable-order cases)
#: are common.
intensity_trace = st.lists(
    st.sampled_from([50.0, 120.0, 300.0, 300.0, 600.0]),
    min_size=N_HOURS,
    max_size=N_HOURS,
).map(np.array)


def full_year_deficit(shifted, supply):
    """The capacity search's exact deficit: the series arithmetic, raw."""
    return float(np.clip(np.subtract(shifted, supply), 0.0, None).sum())


def probe_thresholds(total):
    """Thresholds on both sides of, and exactly at, the computed total."""
    return (
        total,
        np.nextafter(total, math.inf),
        np.nextafter(total, -math.inf),
        total * (1.0 + 1e-9),
        total * (1.0 - 1e-9),
        1e-12,
        5e-324,
    )


def assert_predicate_exact(seed, capacity_mw):
    shifted, _ = schedule_run_seeded(seed, capacity_mw)
    total = full_year_deficit(shifted, seed.supply)
    for threshold in probe_thresholds(total):
        threshold = float(threshold)
        assert schedule_deficit_exceeds(seed, capacity_mw, threshold) == (
            total > threshold
        ), (capacity_mw, threshold, total)


def year_inputs(year, seed):
    """A seeded-random year: flat-ish demand against a bursty supply."""
    n_hours = YearCalendar(year).n_hours
    rng = np.random.default_rng(seed)
    demand = rng.uniform(8.0, 12.0, n_hours)
    daylight = np.tile(np.r_[np.zeros(7), np.ones(10), np.zeros(7)], n_hours // 24)
    supply = daylight * rng.uniform(0.0, 40.0, n_hours) + rng.uniform(0.0, 6.0, n_hours)
    intensity = rng.choice([80.0, 200.0, 450.0, 700.0], n_hours)
    return demand, supply, intensity


class TestSeededRun:
    @settings(deadline=None, max_examples=60)
    @given(
        demand=trace(0.0, 20.0),
        supply=trace(0.0, 40.0),
        intensity=intensity_trace,
        profile=st.sampled_from(sorted(PROFILES)),
        multiple=st.sampled_from([1.0, 1.2, 2.0, math.inf]),
    )
    def test_bitwise_identical_to_schedule_run(
        self, demand, supply, intensity, profile, multiple
    ):
        ratio = PROFILES[profile]
        capacity = float(demand.max()) * multiple if demand.max() > 0 else multiple
        shifted, moved = schedule_run(demand, supply, intensity, capacity, ratio)
        seeded, seeded_moved = schedule_run_seeded(
            ScheduleSeed(demand, supply, intensity, ratio), capacity
        )
        assert np.array_equal(seeded, shifted)
        assert seeded_moved == moved

    @pytest.mark.parametrize("profile", sorted(PROFILES))
    @pytest.mark.parametrize("year", [2021, 2020])
    def test_one_seed_serves_every_capacity(self, year, profile):
        demand, supply, intensity = year_inputs(year, 3)
        ratio = PROFILES[profile]
        seed = ScheduleSeed(demand, supply, intensity, ratio)
        peak = float(demand.max())
        # Revisit a capacity after larger ones: a seed mutated by an
        # earlier run would change the repeat.
        for capacity in (peak, 1.3 * peak, math.inf, 2.0 * peak, peak):
            shifted, moved = schedule_run(demand, supply, intensity, capacity, ratio)
            seeded, seeded_moved = schedule_run_seeded(seed, capacity)
            assert np.array_equal(seeded, shifted)
            assert seeded_moved == moved

    def test_inputs_are_not_written(self):
        demand, supply, intensity = year_inputs(2021, 5)
        before = demand.copy()
        seed = ScheduleSeed(demand, supply, intensity, PROFILES["fwr1"])
        shifted, moved = schedule_run_seeded(seed, float(demand.max()) * 2.0)
        assert moved > 0.0
        assert np.array_equal(demand, before)
        assert not np.shares_memory(shifted, demand)


class TestDeficitPredicate:
    @settings(deadline=None, max_examples=80)
    @given(
        demand=trace(0.0, 20.0),
        supply=trace(0.0, 40.0),
        intensity=intensity_trace,
        profile=st.sampled_from(sorted(PROFILES)),
        multiple=st.sampled_from([1.0, 1.05, 1.5, 3.0, math.inf]),
    )
    def test_matches_full_year_total(self, demand, supply, intensity, profile, multiple):
        seed = ScheduleSeed(demand, supply, intensity, PROFILES[profile])
        capacity = float(demand.max()) * multiple if demand.max() > 0 else multiple
        assert_predicate_exact(seed, capacity)

    @pytest.mark.parametrize("profile", sorted(PROFILES))
    @pytest.mark.parametrize("year", [2021, 2020])
    def test_matches_full_year_total_on_calendars(self, year, profile):
        demand, supply, intensity = year_inputs(year, 7)
        assert demand.shape[0] == YearCalendar(year).n_hours
        seed = ScheduleSeed(demand, supply, intensity, PROFILES[profile])
        peak = float(demand.max())
        for capacity in (peak, 1.5 * peak, 4.0 * peak):
            assert_predicate_exact(seed, capacity)

    @pytest.fixture()
    def scheduled_days(self, monkeypatch):
        """The days the greedy day loop runs, in order."""
        days = []
        original = greedy_kernel._schedule_day

        def counting(day_inputs, capacity_mw):
            days.append(day_inputs.day)
            return original(day_inputs, capacity_mw)

        monkeypatch.setattr(greedy_kernel, "_schedule_day", counting)
        return days

    def test_exits_at_the_first_proven_deficit(self, scheduled_days):
        demand, supply, intensity = year_inputs(2021, 11)
        supply[:HOURS_PER_DAY] = 0.0  # day 0 alone leaves ~240 MWh unmet
        seed = ScheduleSeed(demand, supply, intensity, PROFILES["fwr1"])
        assert seed.days[0].day == 0
        assert schedule_deficit_exceeds(seed, float(demand.max()), 1.0)
        assert scheduled_days == [0]

    def test_covered_year_runs_every_candidate_day(self, scheduled_days):
        demand = np.full(N_HOURS, 10.0)
        supply = np.tile(np.r_[np.zeros(8), np.full(8, 40.0), np.zeros(8)], N_DAYS)
        intensity = np.where(supply > 0.0, 50.0, 600.0)
        seed = ScheduleSeed(demand, supply, intensity, PROFILES["fwr1"])
        assert not schedule_deficit_exceeds(seed, 40.0, 1.0)
        assert scheduled_days == list(range(N_DAYS))

    def test_no_candidate_days_decides_on_the_full_year(self):
        demand = np.full(N_HOURS, 10.0)
        supply = np.full(N_HOURS, 4.0)
        seed = ScheduleSeed(demand, supply, demand, PROFILES["fwr0"])
        assert seed.days == ()
        total = float(N_HOURS * 6.0)
        assert schedule_deficit_exceeds(seed, 10.0, total - 1.0)
        assert not schedule_deficit_exceeds(seed, 10.0, total)

    def test_non_finite_deficit_is_rejected(self):
        demand = np.full(N_HOURS, 10.0)
        supply = np.full(N_HOURS, 20.0)
        supply[5] = math.inf
        seed = ScheduleSeed(demand, supply, demand, PROFILES["fwr1"])
        with pytest.raises(ValueError, match="finite"):
            schedule_deficit_exceeds(seed, 10.0, 1.0)
