"""Property tests: the seeded battery kernel is bitwise-identical to the
plain one.

:func:`battery_run_seeded` fast-forwards the rail-pinned stretches of the
year (energy exactly at capacity with a surplus, or exactly at the DoD
floor with a deficit) using structures precomputed once per (demand,
supply) pair.  The fast-forwards are only sound if they reproduce the
plain kernel's IEEE arithmetic exactly, so every comparison below is
exact (``np.array_equal``, ``==``) — no tolerances.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.battery import LFP, BatterySpec, simulate_battery
from repro.kernels import (
    BatterySeed,
    battery_import_exceeds,
    battery_run,
    battery_run_seeded,
)
from repro.timeseries import HOURS_PER_DAY

#: A chemistry whose C-rate limits almost never bind (the high-C-rate edge).
HIGH_C_RATE = dataclasses.replace(
    LFP, name="high-c-rate", max_charge_c_rate=25.0, max_discharge_c_rate=25.0
)

N_HOURS = 2 * HOURS_PER_DAY


def trace(max_value):
    return st.lists(
        st.floats(0.0, max_value, allow_nan=False),
        min_size=N_HOURS,
        max_size=N_HOURS,
    ).map(np.array)


#: Edge-heavy spec pool: no battery, a tiny battery whose limits bind
#: everywhere, mid/large batteries, a DoD floor (and the dod=0 degenerate
#: where floor == capacity, so both rails coincide), and an unbinding C-rate.
SPECS = st.sampled_from(
    [
        BatterySpec(0.0),
        BatterySpec(0.001),
        BatterySpec(5.0),
        BatterySpec(40.0),
        BatterySpec(40.0, depth_of_discharge=0.8),
        BatterySpec(40.0, depth_of_discharge=1e-12),
        BatterySpec(5.0, chemistry=HIGH_C_RATE),
    ]
)

INITIAL_SOCS = st.sampled_from([0.0, 0.5, 1.0])


def kernel_battery_kwargs(spec, initial_soc):
    floor = spec.floor_mwh
    return dict(
        capacity_mwh=spec.capacity_mwh,
        floor_mwh=floor,
        max_charge_mw=spec.max_charge_mw,
        max_discharge_mw=spec.max_discharge_mw,
        charge_efficiency=spec.chemistry.charge_efficiency,
        discharge_efficiency=spec.chemistry.discharge_efficiency,
        initial_energy_mwh=floor + initial_soc * (spec.capacity_mwh - floor),
    )


def assert_runs_equal(seeded, plain):
    assert np.array_equal(seeded.grid_import, plain.grid_import)
    assert np.array_equal(seeded.surplus, plain.surplus)
    assert np.array_equal(seeded.charge_level, plain.charge_level)
    assert seeded.charged_mwh == plain.charged_mwh
    assert seeded.discharged_mwh == plain.discharged_mwh


def year_series():
    """A flat 10 MW demand year against a seeded-random 0-25 MW supply."""
    from repro.timeseries import HourlySeries, YearCalendar

    calendar = YearCalendar(2021)
    rng = np.random.default_rng(11)
    demand = HourlySeries(np.full(calendar.n_hours, 10.0), calendar, name="demand")
    supply = HourlySeries(
        rng.uniform(0.0, 25.0, calendar.n_hours), calendar, name="supply"
    )
    return demand, supply


#: A rail-heavy year fragment: long all-surplus and all-deficit stretches
#: (the battery saturates at a rail and stays pinned for hours), plus exact
#: supply == demand ties, which must produce +0.0 gaps and keep the battery
#: pinned without touching surplus/import.
def rail_heavy_trace():
    demand = np.full(N_HOURS, 10.0)
    supply = np.zeros(N_HOURS)
    supply[:16] = 30.0  # long surplus: charge to capacity, then pinned full
    supply[16:24] = 10.0  # exact tie: gap is +0.0, stays pinned
    supply[24:40] = 2.0  # long deficit: drain to floor, then pinned empty
    supply[40:] = 25.0  # recover
    return demand, supply


class TestSeededKernel:
    @settings(deadline=None, max_examples=80)
    @given(demand=trace(20.0), supply=trace(40.0), spec=SPECS, soc=INITIAL_SOCS)
    def test_bitwise_identical_to_plain_kernel(self, demand, supply, spec, soc):
        kwargs = kernel_battery_kwargs(spec, soc)
        plain = battery_run(demand, supply, **kwargs)
        seeded = battery_run_seeded(BatterySeed(demand, supply), **kwargs)
        assert_runs_equal(seeded, plain)

    @settings(deadline=None, max_examples=40)
    @given(demand=trace(20.0), supply=trace(40.0), soc=INITIAL_SOCS)
    def test_one_seed_serves_the_whole_capacity_axis(self, demand, supply, soc):
        # The sweep pattern: the seed depends only on (demand, supply), so a
        # single instance must be exact for every capacity sharing them.
        seed = BatterySeed(demand, supply)
        for capacity in (0.0, 0.5, 5.0, 40.0, 400.0):
            for spec in (
                BatterySpec(capacity),
                BatterySpec(capacity, depth_of_discharge=0.8),
            ):
                kwargs = kernel_battery_kwargs(spec, soc)
                assert_runs_equal(
                    battery_run_seeded(seed, **kwargs),
                    battery_run(demand, supply, **kwargs),
                )

    @pytest.mark.parametrize("soc", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("dod", [1.0, 0.8])
    def test_rail_heavy_trace_is_exact(self, soc, dod):
        demand, supply = rail_heavy_trace()
        seed = BatterySeed(demand, supply)
        for capacity in (0.0, 5.0, 20.0, 80.0):
            kwargs = kernel_battery_kwargs(
                BatterySpec(capacity, depth_of_discharge=dod), soc
            )
            assert_runs_equal(
                battery_run_seeded(seed, **kwargs),
                battery_run(demand, supply, **kwargs),
            )

    def test_zero_capacity_delegates_to_renewables_only(self):
        demand, supply = rail_heavy_trace()
        kwargs = kernel_battery_kwargs(BatterySpec(0.0), 1.0)
        run = battery_run_seeded(BatterySeed(demand, supply), **kwargs)
        gap = supply - demand
        assert np.array_equal(run.grid_import, np.where(gap < 0.0, -gap, 0.0))
        assert np.array_equal(run.surplus, np.where(gap > 0.0, gap, 0.0))
        assert run.charged_mwh == 0.0
        assert run.discharged_mwh == 0.0

    def test_exact_tie_hours_produce_positive_zero(self):
        # supply - demand == 0.0 must be +0.0 (IEEE: x - x is +0.0), and the
        # fast-forward must copy it through unchanged — a -0.0 anywhere in
        # the outputs would break bitwise identity with the plain kernel.
        demand = np.full(N_HOURS, 10.0)
        supply = np.full(N_HOURS, 10.0)
        seed = BatterySeed(demand, supply)
        run = battery_run_seeded(
            seed, **kernel_battery_kwargs(BatterySpec(5.0), 1.0)
        )
        assert not np.signbit(run.grid_import).any()
        assert not np.signbit(run.surplus).any()


THRESHOLDS = st.sampled_from([0.0, 1.0, 100.0])


class TestSeededProbe:
    """The capacity-search predicate rides the same seed: its full-rail
    jumps must answer exactly what the full plain run's import total says."""

    @settings(deadline=None, max_examples=80)
    @given(
        demand=trace(20.0),
        supply=trace(40.0),
        spec=SPECS,
        soc=INITIAL_SOCS,
        threshold=THRESHOLDS,
    )
    def test_matches_full_run_import_total(
        self, demand, supply, spec, soc, threshold
    ):
        kwargs = kernel_battery_kwargs(spec, soc)
        run = battery_run(demand, supply, **kwargs)
        exceeds = battery_import_exceeds(
            BatterySeed(demand, supply), threshold_mwh=threshold, **kwargs
        )
        assert exceeds == (float(run.grid_import.sum()) > threshold)

    @pytest.mark.parametrize("threshold", [0.0, 1.0, 100.0])
    @pytest.mark.parametrize("soc", [0.0, 0.5, 1.0])
    def test_rail_heavy_trace(self, soc, threshold):
        demand, supply = rail_heavy_trace()
        seed = BatterySeed(demand, supply)
        for capacity in (0.0, 5.0, 20.0, 80.0, 800.0):
            kwargs = kernel_battery_kwargs(BatterySpec(capacity), soc)
            run = battery_run(demand, supply, **kwargs)
            assert battery_import_exceeds(
                seed, threshold_mwh=threshold, **kwargs
            ) == (float(run.grid_import.sum()) > threshold)

    def test_capacity_search_builds_at_most_one_seed(self, monkeypatch):
        from repro.battery import capacity_for_full_coverage, simulator

        built = []

        class CountingSeed(BatterySeed):
            def __init__(self, demand, supply):
                built.append(1)
                super().__init__(demand, supply)

        monkeypatch.setattr(simulator, "BatterySeed", CountingSeed)
        demand, supply = year_series()
        capacity = capacity_for_full_coverage(demand, supply * 2.0)
        assert 0.0 < capacity < float("inf")
        assert len(built) == 1


class TestSeedStructure:
    def test_matches_accepts_identity_and_equal_values(self):
        demand, supply = rail_heavy_trace()
        seed = BatterySeed(demand, supply)
        assert seed.matches(demand, supply)
        assert seed.matches(demand.copy(), supply.copy())
        assert not seed.matches(demand, supply + 1.0)
        assert not seed.matches(demand[:-1], supply[:-1])

    def test_fast_forward_structures(self):
        demand = np.array([10.0, 10.0, 10.0, 10.0])
        supply = np.array([30.0, 10.0, 2.0, 25.0])
        seed = BatterySeed(demand, supply)
        # next_deficit[h]: first hour >= h with a strict deficit.
        assert list(seed.next_deficit) == [2, 2, 2, 4]
        # next_surplus[h]: first hour >= h with a strict surplus.
        assert list(seed.next_surplus) == [0, 3, 3, 3]
        assert np.array_equal(seed.surplus_if_full, [20.0, 0.0, 0.0, 15.0])
        assert np.array_equal(seed.import_if_empty, [0.0, 0.0, 8.0, 0.0])


class TestSimulatorIntegration:

    def test_simulate_battery_with_seed_matches_without(self):
        demand, supply = year_series()
        spec = BatterySpec(50.0)
        seed = BatterySeed(demand.values, supply.values)
        plain = simulate_battery(demand, supply, spec)
        seeded = simulate_battery(demand, supply, spec, seed=seed)
        assert seeded.grid_import == plain.grid_import
        assert seeded.surplus == plain.surplus
        assert seeded.charge_level == plain.charge_level
        assert seeded.charged_mwh == plain.charged_mwh
        assert seeded.discharged_mwh == plain.discharged_mwh

    def test_mismatched_seed_is_rejected(self):
        demand, supply = year_series()
        seed = BatterySeed(demand.values, (supply * 2.0).values)
        with pytest.raises(ValueError, match="different demand/supply"):
            simulate_battery(demand, supply, BatterySpec(50.0), seed=seed)
