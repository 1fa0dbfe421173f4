"""Property tests: the array-native kernels are bitwise-identical to the
original object-based loops.

Each reference implementation below is a verbatim copy of the pre-kernel
loop (driving :class:`repro.battery.Battery` per hour, or the per-day
greedy move loop), so any IEEE-level divergence in the kernels — a
reordered operation, a changed clamp — fails these tests with exact
(``np.array_equal``, ``==``) comparisons, not tolerances.
"""

from __future__ import annotations

import dataclasses
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.battery import LFP, Battery, BatterySpec
from repro.kernels import (
    BatterySeed,
    battery_import_exceeds,
    battery_run,
    combined_run,
    renewables_only_run,
    schedule_run,
)
from repro.timeseries import HOURS_PER_DAY

_MIN_MOVE_MW = 1e-9
_EPSILON_MWH = 1e-9

#: A chemistry whose C-rate limits almost never bind (the high-C-rate edge).
HIGH_C_RATE = dataclasses.replace(
    LFP, name="high-c-rate", max_charge_c_rate=25.0, max_discharge_c_rate=25.0
)

N_HOURS = 2 * HOURS_PER_DAY


# ---------------------------------------------------------------------------
# Reference implementations (the pre-kernel loops, verbatim)
# ---------------------------------------------------------------------------
def ref_battery_run(demand, supply, spec, initial_soc):
    battery = Battery(spec, initial_soc=initial_soc)
    n_hours = len(demand)
    grid_import = np.zeros(n_hours)
    surplus = np.zeros(n_hours)
    charge_level = np.zeros(n_hours)
    for hour in range(n_hours):
        gap = supply[hour] - demand[hour]
        if gap >= 0.0:
            absorbed = battery.charge(gap)
            surplus[hour] = gap - absorbed
        else:
            delivered = battery.discharge(-gap)
            grid_import[hour] = -gap - delivered
        charge_level[hour] = battery.energy_mwh
    return (
        grid_import,
        surplus,
        charge_level,
        battery.charged_mwh,
        battery.discharged_mwh,
    )


def ref_schedule_one_day(demand, supply, intensity, capacity_mw, flexible_ratio):
    movable = demand * flexible_ratio
    moved_total = 0.0
    source_order = sorted(
        range(HOURS_PER_DAY), key=lambda h: intensity[h], reverse=True
    )
    dest_order = sorted(range(HOURS_PER_DAY), key=lambda h: intensity[h])
    for src in source_order:
        deficit = demand[src] - supply[src]
        if deficit <= _MIN_MOVE_MW or movable[src] <= _MIN_MOVE_MW:
            continue
        for dst in dest_order:
            if dst == src:
                continue
            if intensity[dst] >= intensity[src]:
                break
            deficit = demand[src] - supply[src]
            if deficit <= _MIN_MOVE_MW or movable[src] <= _MIN_MOVE_MW:
                break
            surplus = supply[dst] - demand[dst]
            headroom = capacity_mw - demand[dst]
            amount = min(deficit, movable[src], surplus, headroom)
            if amount <= _MIN_MOVE_MW:
                continue
            demand[src] -= amount  # repro-lint: disable=RL003 — reference implementation mutates its own per-day copy; callers pass fresh arrays
            demand[dst] += amount  # repro-lint: disable=RL003 — reference implementation mutates its own per-day copy; callers pass fresh arrays
            movable[src] -= amount
            moved_total += amount
    return moved_total


def ref_schedule_run(demand, supply, intensity, capacity_mw, ratio_profile):
    shifted = demand.copy()
    moved_total = 0.0
    if ratio_profile.max() > 0.0:
        for day in range(len(demand) // HOURS_PER_DAY):
            day_slice = slice(day * HOURS_PER_DAY, (day + 1) * HOURS_PER_DAY)
            moved_total += ref_schedule_one_day(
                shifted[day_slice],
                supply[day_slice],
                intensity[day_slice],
                capacity_mw,
                ratio_profile,
            )
    return shifted, moved_total


def ref_combined_run(
    demand_values,
    supply_values,
    battery,
    capacity_mw,
    flexible_ratio,
    deadline_hours,
    initial_soc,
):
    n_hours = len(demand_values)
    pack = Battery(battery, initial_soc=initial_soc)
    queue = deque()
    queued_total = 0.0

    shifted = np.zeros(n_hours)
    grid_import = np.zeros(n_hours)
    surplus_out = np.zeros(n_hours)
    charge_level = np.zeros(n_hours)
    deferred_total = 0.0
    late_total = 0.0
    deferral_events = 0

    def run_queued(budget_mwh, now, overdue_only):
        nonlocal queued_total, late_total
        executed = 0.0
        while queue and budget_mwh - executed > _EPSILON_MWH:
            deadline, amount = queue[0]
            if overdue_only and deadline > now:
                break
            take = min(amount, budget_mwh - executed)
            executed += take
            queued_total -= take
            if deadline < now:
                late_total += take
            if take >= amount - _EPSILON_MWH:
                queue.popleft()
            else:
                queue[0] = (deadline, amount - take)
        return executed

    for hour in range(n_hours):
        load = demand_values[hour]
        headroom = capacity_mw - load
        if headroom > _EPSILON_MWH and queued_total > _EPSILON_MWH:
            load += run_queued(headroom, hour, True)

        gap = supply_values[hour] - load
        if gap > 0.0:
            headroom = capacity_mw - load
            budget = min(gap, headroom)
            if budget > _EPSILON_MWH and queued_total > _EPSILON_MWH:
                ran = run_queued(budget, hour, False)
                load += ran
                gap = max(gap - ran, 0.0)
            absorbed = pack.charge(gap)
            surplus_out[hour] = gap - absorbed
        else:
            deficit = -gap
            delivered = pack.discharge(deficit)
            deficit -= delivered
            if deficit > _EPSILON_MWH and flexible_ratio > 0.0:
                deferrable = flexible_ratio * demand_values[hour]
                deferred = min(deficit, deferrable)
                if deferred > _EPSILON_MWH:
                    load -= deferred
                    deficit -= deferred
                    queue.append((hour + deadline_hours, deferred))
                    queued_total += deferred
                    deferred_total += deferred
                    deferral_events += 1
            grid_import[hour] = max(deficit, 0.0)

        shifted[hour] = load
        charge_level[hour] = pack.energy_mwh

    return (
        shifted,
        grid_import,
        surplus_out,
        charge_level,
        deferred_total,
        late_total,
        queued_total,
        pack.charged_mwh,
        pack.discharged_mwh,
        deferral_events,
    )


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------
def trace(max_value):
    return st.lists(
        st.floats(0.0, max_value, allow_nan=False),
        min_size=N_HOURS,
        max_size=N_HOURS,
    ).map(np.array)


#: Edge-heavy spec pool: no battery, a tiny battery whose limits bind
#: everywhere, mid/large batteries, a DoD floor, and an unbinding C-rate.
SPECS = st.sampled_from(
    [
        BatterySpec(0.0),
        BatterySpec(0.001),
        BatterySpec(5.0),
        BatterySpec(40.0),
        BatterySpec(40.0, depth_of_discharge=0.8),
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


# ---------------------------------------------------------------------------
# Battery kernel
# ---------------------------------------------------------------------------
class TestBatteryKernel:
    @settings(deadline=None, max_examples=60)
    @given(demand=trace(20.0), supply=trace(40.0), spec=SPECS, soc=INITIAL_SOCS)
    def test_bitwise_identical_to_battery_class_loop(
        self, demand, supply, spec, soc
    ):
        ref = ref_battery_run(demand, supply, spec, soc)
        run = battery_run(demand, supply, **kernel_battery_kwargs(spec, soc))
        assert np.array_equal(run.grid_import, ref[0])
        assert np.array_equal(run.surplus, ref[1])
        assert np.array_equal(run.charge_level, ref[2])
        assert run.charged_mwh == ref[3]
        assert run.discharged_mwh == ref[4]

    @settings(deadline=None, max_examples=60)
    @given(
        demand=trace(20.0),
        supply=trace(40.0),
        spec=SPECS,
        soc=INITIAL_SOCS,
        threshold=st.sampled_from([0.0, 1.0, 100.0]),
    )
    def test_import_exceeds_matches_full_run(
        self, demand, supply, spec, soc, threshold
    ):
        run = battery_run(demand, supply, **kernel_battery_kwargs(spec, soc))
        exceeds = battery_import_exceeds(
            BatterySeed(demand, supply),
            threshold_mwh=threshold,
            **kernel_battery_kwargs(spec, soc),
        )
        assert exceeds == (float(run.grid_import.sum()) > threshold)

    def test_renewables_only_is_positive_parts(self):
        demand = np.array([10.0, 5.0, 0.0, 7.0])
        supply = np.array([4.0, 5.0, 3.0, 20.0])
        grid_import, surplus = renewables_only_run(demand, supply)
        assert np.array_equal(grid_import, [6.0, 0.0, 0.0, 0.0])
        assert np.array_equal(surplus, [0.0, 0.0, 3.0, 13.0])


# ---------------------------------------------------------------------------
# Greedy scheduling kernel
# ---------------------------------------------------------------------------
class TestGreedyKernel:
    @settings(deadline=None, max_examples=60)
    @given(
        demand=trace(20.0),
        supply=trace(40.0),
        intensity=trace(900.0),
        ratio=st.sampled_from([0.0, 0.15, 0.4, 1.0]),
        capacity_multiple=st.sampled_from([1.0, 1.5, 3.0]),
    )
    def test_bitwise_identical_to_per_day_loop(
        self, demand, supply, intensity, ratio, capacity_multiple
    ):
        capacity_mw = float(demand.max()) * capacity_multiple
        profile = np.full(HOURS_PER_DAY, ratio)
        ref_shifted, ref_moved = ref_schedule_run(
            demand, supply, intensity, capacity_mw, profile
        )
        shifted, moved = schedule_run(demand, supply, intensity, capacity_mw, profile)
        assert np.array_equal(shifted, ref_shifted)
        assert moved == ref_moved

    @settings(deadline=None, max_examples=30)
    @given(
        demand=trace(20.0),
        supply=trace(40.0),
        intensity=trace(900.0),
        profile=st.lists(
            st.floats(0.0, 1.0, allow_nan=False),
            min_size=HOURS_PER_DAY,
            max_size=HOURS_PER_DAY,
        ).map(np.array),
    )
    def test_hour_of_day_profiles_match(self, demand, supply, intensity, profile):
        capacity_mw = float(demand.max()) * 1.5
        ref_shifted, ref_moved = ref_schedule_run(
            demand, supply, intensity, capacity_mw, profile
        )
        shifted, moved = schedule_run(demand, supply, intensity, capacity_mw, profile)
        assert np.array_equal(shifted, ref_shifted)
        assert moved == ref_moved

    def test_tied_intensities_break_identically(self):
        # Constant intensity forces every comparison through the tie-break;
        # sorted() is stable and the kernel's argsort must match it exactly.
        demand = np.full(N_HOURS, 10.0)
        demand[::3] = 18.0
        supply = np.full(N_HOURS, 12.0)
        intensity = np.full(N_HOURS, 500.0)
        capacity_mw = 30.0
        profile = np.full(HOURS_PER_DAY, 0.5)
        ref_shifted, ref_moved = ref_schedule_run(
            demand, supply, intensity, capacity_mw, profile
        )
        shifted, moved = schedule_run(demand, supply, intensity, capacity_mw, profile)
        assert np.array_equal(shifted, ref_shifted)
        assert moved == ref_moved


# ---------------------------------------------------------------------------
# Combined heuristic kernel
# ---------------------------------------------------------------------------
class TestCombinedKernel:
    @settings(deadline=None, max_examples=60)
    @given(
        demand=trace(20.0),
        supply=trace(40.0),
        spec=SPECS,
        soc=INITIAL_SOCS,
        ratio=st.sampled_from([0.0, 0.25, 1.0]),
        deadline_hours=st.sampled_from([1, 4, 24]),
    )
    def test_bitwise_identical_to_object_loop(
        self, demand, supply, spec, soc, ratio, deadline_hours
    ):
        capacity_mw = float(demand.max()) * 1.5 + 1.0
        ref = ref_combined_run(
            demand, supply, spec, capacity_mw, ratio, deadline_hours, soc
        )
        run = combined_run(
            demand,
            supply,
            capacity_mw=capacity_mw,
            flexible_ratio=ratio,
            deadline_hours=deadline_hours,
            **kernel_battery_kwargs(spec, soc),
        )
        assert np.array_equal(run.shifted_demand, ref[0])
        assert np.array_equal(run.grid_import, ref[1])
        assert np.array_equal(run.surplus, ref[2])
        assert np.array_equal(run.charge_level, ref[3])
        assert run.deferred_mwh == ref[4]
        assert run.late_mwh == ref[5]
        assert run.unserved_mwh == ref[6]
        assert run.charged_mwh == ref[7]
        assert run.discharged_mwh == ref[8]
        assert run.deferral_events == ref[9]

    @pytest.mark.parametrize("spec", [BatterySpec(0.0), BatterySpec(25.0)])
    def test_zero_ratio_reduces_to_battery_run(self, spec):
        rng = np.random.default_rng(7)
        demand = rng.uniform(0.0, 20.0, N_HOURS)
        supply = rng.uniform(0.0, 40.0, N_HOURS)
        kwargs = kernel_battery_kwargs(spec, 1.0)
        battery = battery_run(demand, supply, **kwargs)
        combined = combined_run(
            demand,
            supply,
            capacity_mw=float(demand.max()) * 2.0,
            flexible_ratio=0.0,
            deadline_hours=24,
            **kwargs,
        )
        assert np.array_equal(combined.shifted_demand, demand)
        assert np.array_equal(combined.grid_import, battery.grid_import)
        assert np.array_equal(combined.surplus, battery.surplus)
        assert np.array_equal(combined.charge_level, battery.charge_level)
        assert combined.deferred_mwh == 0.0
        assert combined.deferral_events == 0
