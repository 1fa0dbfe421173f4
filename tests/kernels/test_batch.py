"""Property tests: the batched ``(D, H)`` kernels equal the serial loops.

The contract of :mod:`repro.kernels.batch` is *bitwise* equivalence: for
any block of designs, slicing row ``i`` out of a batch result must equal
running the serial kernel on row ``i`` alone — not approximately, to the
last ulp.  Every comparison here is exact (``np.array_equal``, ``==``),
and the sign-of-zero properties compare IEEE-754 bit patterns
(:func:`assert_bits_equal`), which also tell ``-0.0`` from ``+0.0``;
:mod:`tests.kernels.test_equivalence` ties the serial kernels to the
original object loops, so these tests transitively pin the batch kernels
to the pre-kernel semantics.

``battery_run_batch`` is ``combined_run_batch`` at flexible ratio 0, so
its cases pin the combined kernel's no-deferral lanes to ``battery_run``.

Covered edges: ``D = 1`` blocks, zero-capacity rows mixed into live
blocks, per-row ``(D, H)`` demand and ``(S, H)`` site traces with a
row->site index (the fleet-merge layouts), ``(U, H)`` distinct supply
rows with a row->supply index, hours where supply equals demand exactly
(where ``-0.0`` arises), full leap and non-leap years, a soak over a full
deadline ring, a leap year of overdue backlog thousands of entries deep
(with an allocation bound), the ``planes=False`` output-plane opt-out,
NaN-freedom, and the surplus-soak hazard replay helper against an
independent reimplementation of the serial FIFO walk.
"""

from __future__ import annotations

import dataclasses
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.battery import LFP, BatterySpec
from repro.kernels import (
    battery_run,
    battery_run_batch,
    combined_run,
    combined_run_batch,
    renewables_only_run,
    schedule_run,
    schedule_run_batch,
)
from repro.kernels.batch import _EPSILON_MWH, _soak_exact_column, _soak_replay_rows
from repro.timeseries import HOURS_PER_DAY

#: A chemistry whose C-rate limits almost never bind (the high-C-rate edge).
HIGH_C_RATE = dataclasses.replace(
    LFP, name="high-c-rate", max_charge_c_rate=25.0, max_discharge_c_rate=25.0
)

#: Two days: enough for the combined kernel's full deadline ring (24 h) to
#: wrap and for overdue work to be carried across a day boundary.
N_HOURS = 2 * HOURS_PER_DAY

#: Edge-heavy spec pool: no battery (the renewables-only delegation), a
#: tiny battery whose limits bind everywhere, mid/large packs, a DoD
#: floor, and an unbinding C-rate.
SPEC_POOL = [
    BatterySpec(0.0),
    BatterySpec(0.001),
    BatterySpec(5.0),
    BatterySpec(40.0),
    BatterySpec(40.0, depth_of_discharge=0.8),
    BatterySpec(5.0, chemistry=HIGH_C_RATE),
]

#: Per-row (spec, initial soc, flexible ratio, capacity multiple) tuples;
#: the list length is the block's design axis D.
ROWS = st.lists(
    st.tuples(
        st.sampled_from(SPEC_POOL),
        st.sampled_from([0.0, 0.5, 1.0]),
        st.sampled_from([0.0, 0.25, 1.0]),
        st.sampled_from([1.2, 1.5, 3.0]),
    ),
    min_size=1,
    max_size=4,
)

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def make_traces(seed, n_rows):
    """Deterministic shared demand and a per-row supply block."""
    rng = np.random.default_rng(seed)
    demand = rng.uniform(0.0, 20.0, N_HOURS)
    supply = rng.uniform(0.0, 40.0, (n_rows, N_HOURS))
    return demand, supply


def battery_kwargs(spec, soc):
    """The serial wrappers' hoisted per-design scalar constants."""
    floor = spec.floor_mwh
    return dict(
        capacity_mwh=spec.capacity_mwh,
        floor_mwh=floor,
        max_charge_mw=spec.max_charge_mw,
        max_discharge_mw=spec.max_discharge_mw,
        charge_efficiency=spec.chemistry.charge_efficiency,
        discharge_efficiency=spec.chemistry.discharge_efficiency,
        initial_energy_mwh=floor + soc * (spec.capacity_mwh - floor),
    )


def battery_columns(rows):
    """The same constants stacked into the batch kernel's (D,) columns."""
    per_row = [battery_kwargs(spec, soc) for spec, soc, _, _ in rows]
    return {key: np.array([kw[key] for kw in per_row]) for key in per_row[0]}


def assert_finite(*arrays):
    for array in arrays:
        assert np.isfinite(array).all()


def assert_bits_equal(actual, expected):
    """Exact equality that also tells ``-0.0`` from ``+0.0``.

    ``np.array_equal`` and ``==`` treat the two zeros as equal, so they
    cannot see the module's sign-of-zero contract; the IEEE-754 bit
    patterns can.
    """
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    assert actual.shape == expected.shape
    assert np.array_equal(actual.view(np.uint64), expected.view(np.uint64))


def tied_traces(seed, n_sites, row_sites):
    """``(S, H)`` site traces and a ``(D, H)`` supply block in which about
    a third of each row's hours equal its site's demand exactly: a zero
    gap is where the lockstep loops meet ``-0.0``."""
    rng = np.random.default_rng(seed)
    traces = rng.uniform(0.0, 20.0, (n_sites, N_HOURS))
    supply = rng.uniform(0.0, 40.0, (len(row_sites), N_HOURS))
    ties = rng.random(supply.shape) < 1.0 / 3.0
    supply[ties] = traces[row_sites][ties]
    return traces, supply


#: A block of 1-4 rows behind a zero-capacity row (the renewables-only
#: delegation, whose grid plane the kernel normalizes).
ZERO_LED_ROWS = ROWS.map(lambda rows: [(BatterySpec(0.0), 1.0, 0.0, 1.5)] + rows)


# ---------------------------------------------------------------------------
# Battery kernel
# ---------------------------------------------------------------------------
class TestBatteryBatch:
    @settings(deadline=None, max_examples=40)
    @given(rows=ROWS, seed=SEEDS)
    def test_rows_bitwise_equal_serial_kernel(self, rows, seed):
        demand, supply = make_traces(seed, len(rows))
        batch = battery_run_batch(demand, supply, **battery_columns(rows))
        for i, (spec, soc, _, _) in enumerate(rows):
            ref = battery_run(demand, supply[i], **battery_kwargs(spec, soc))
            assert np.array_equal(batch.grid_import[i], ref.grid_import)
            assert np.array_equal(batch.surplus[i], ref.surplus)
            assert np.array_equal(batch.charge_level[i], ref.charge_level)
            assert batch.charged_mwh[i] == ref.charged_mwh
            assert batch.discharged_mwh[i] == ref.discharged_mwh
        assert_finite(batch.grid_import, batch.surplus, batch.charge_level)

    @settings(deadline=None, max_examples=25)
    @given(rows=ROWS, seed=SEEDS)
    def test_per_row_demand_block(self, rows, seed):
        """(D, H) demand — each row its own trace (the fleet-merge layout)."""
        rng = np.random.default_rng(seed)
        demand = rng.uniform(0.0, 20.0, (len(rows), N_HOURS))
        supply = rng.uniform(0.0, 40.0, (len(rows), N_HOURS))
        batch = battery_run_batch(demand, supply, **battery_columns(rows))
        for i, (spec, soc, _, _) in enumerate(rows):
            ref = battery_run(demand[i], supply[i], **battery_kwargs(spec, soc))
            assert np.array_equal(batch.grid_import[i], ref.grid_import)
            assert np.array_equal(batch.surplus[i], ref.surplus)
            assert np.array_equal(batch.charge_level[i], ref.charge_level)

    def test_single_row_block(self):
        demand, supply = make_traces(7, 1)
        kwargs = battery_kwargs(BatterySpec(5.0), 0.5)
        batch = battery_run_batch(demand, supply, **kwargs)
        ref = battery_run(demand, supply[0], **kwargs)
        assert batch.grid_import.shape == (1, N_HOURS)
        assert np.array_equal(batch.grid_import[0], ref.grid_import)
        assert np.array_equal(batch.surplus[0], ref.surplus)
        assert np.array_equal(batch.charge_level[0], ref.charge_level)

    def test_zero_capacity_rows_reduce_to_renewables_only(self):
        """An all-zero-capacity block must reproduce renewables_only_run
        even with a nonsense floor/initial energy (the serial
        short-circuit ignores both)."""
        demand, supply = make_traces(11, 3)
        batch = battery_run_batch(
            demand,
            supply,
            capacity_mwh=0.0,
            floor_mwh=2.0,
            max_charge_mw=5.0,
            max_discharge_mw=5.0,
            charge_efficiency=0.95,
            discharge_efficiency=0.95,
            initial_energy_mwh=3.0,
        )
        for i in range(3):
            grid_import, surplus = renewables_only_run(demand, supply[i])
            assert np.array_equal(batch.grid_import[i], grid_import)
            assert np.array_equal(batch.surplus[i], surplus)
            assert np.array_equal(batch.charge_level[i], np.zeros(N_HOURS))
        assert np.array_equal(batch.charged_mwh, np.zeros(3))
        assert np.array_equal(batch.discharged_mwh, np.zeros(3))

    def test_charge_plane_opt_out(self):
        demand, supply = make_traces(3, 2)
        kwargs = battery_kwargs(BatterySpec(5.0), 1.0)
        full = battery_run_batch(demand, supply, **kwargs)
        slim = battery_run_batch(demand, supply, planes=False, **kwargs)
        assert np.array_equal(slim.grid_import, full.grid_import)
        assert np.array_equal(slim.surplus, full.surplus)
        assert np.array_equal(slim.charged_mwh, full.charged_mwh)
        with pytest.raises(AttributeError, match="planes=False"):
            slim.charge_level


    @settings(deadline=None, max_examples=40)
    @given(rows=ZERO_LED_ROWS, seed=SEEDS, data=st.data())
    def test_site_index_form_bitwise_equal_serial_kernel(self, rows, seed, data):
        """(S, H) site traces + a row->site index, compared bit for bit
        (sign of zero included) with the serial kernel per row."""
        n_sites = data.draw(st.integers(min_value=1, max_value=3))
        row_sites = np.array(
            data.draw(
                st.lists(
                    st.integers(min_value=0, max_value=n_sites - 1),
                    min_size=len(rows),
                    max_size=len(rows),
                )
            )
        )
        traces, supply = tied_traces(seed, n_sites, row_sites)
        batch = battery_run_batch(
            traces, supply, row_sites=row_sites, **battery_columns(rows)
        )
        for i, (spec, soc, _, _) in enumerate(rows):
            ref = battery_run(
                traces[row_sites[i]], supply[i], **battery_kwargs(spec, soc)
            )
            assert_bits_equal(batch.grid_import[i], ref.grid_import)
            assert_bits_equal(batch.surplus[i], ref.surplus)
            assert_bits_equal(batch.charge_level[i], ref.charge_level)
            assert_bits_equal(batch.charged_mwh[i], ref.charged_mwh)
            assert_bits_equal(batch.discharged_mwh[i], ref.discharged_mwh)
        assert not batch.deferral_events.any()


# ---------------------------------------------------------------------------
# Greedy CAS kernel
# ---------------------------------------------------------------------------
class TestScheduleBatch:
    @settings(deadline=None, max_examples=40)
    @given(
        caps=st.lists(st.sampled_from([1.0, 1.5, 3.0]), min_size=1, max_size=4),
        seed=SEEDS,
        ratio=st.sampled_from([0.0, 0.15, 0.4, 1.0]),
    )
    def test_rows_bitwise_equal_serial_kernel(self, caps, seed, ratio):
        demand, supply = make_traces(seed, len(caps))
        rng = np.random.default_rng(seed + 1)
        intensity = rng.uniform(0.0, 900.0, N_HOURS)
        profile = np.full(HOURS_PER_DAY, ratio)
        capacity = np.array([float(demand.max()) * c for c in caps])
        batch = schedule_run_batch(demand, supply, intensity, capacity, profile)
        for i, cap in enumerate(capacity):
            ref_shifted, ref_moved = schedule_run(
                demand, supply[i], intensity, float(cap), profile
            )
            assert np.array_equal(batch.shifted[i], ref_shifted)
            assert batch.moved_mwh[i] == ref_moved
        assert_finite(batch.shifted, batch.moved_mwh)

    @settings(deadline=None, max_examples=20)
    @given(
        caps=st.lists(st.sampled_from([1.0, 1.5, 3.0]), min_size=1, max_size=3),
        seed=SEEDS,
        profile=st.lists(
            st.floats(0.0, 1.0, allow_nan=False),
            min_size=HOURS_PER_DAY,
            max_size=HOURS_PER_DAY,
        ).map(np.array),
    )
    def test_hour_of_day_profiles_match(self, caps, seed, profile):
        demand, supply = make_traces(seed, len(caps))
        rng = np.random.default_rng(seed + 1)
        intensity = rng.uniform(0.0, 900.0, N_HOURS)
        capacity = np.array([float(demand.max()) * c for c in caps])
        batch = schedule_run_batch(demand, supply, intensity, capacity, profile)
        for i, cap in enumerate(capacity):
            ref_shifted, ref_moved = schedule_run(
                demand, supply[i], intensity, float(cap), profile
            )
            assert np.array_equal(batch.shifted[i], ref_shifted)
            assert batch.moved_mwh[i] == ref_moved

    def test_zero_profile_short_circuit(self):
        demand, supply = make_traces(5, 2)
        intensity = np.linspace(100.0, 900.0, N_HOURS)
        batch = schedule_run_batch(
            demand, supply, intensity, np.array([30.0, 60.0]),
            np.zeros(HOURS_PER_DAY),
        )
        assert np.array_equal(batch.shifted, np.tile(demand, (2, 1)))
        assert np.array_equal(batch.moved_mwh, np.zeros(2))

    def test_tied_intensities_break_identically(self):
        """Constant intensity forces every comparison through the
        tie-break; the batch kernel must follow the serial order."""
        demand = np.full(N_HOURS, 10.0)
        demand[::3] = 18.0
        supply = np.tile(np.full(N_HOURS, 12.0), (2, 1))
        supply[1] *= 1.5
        intensity = np.full(N_HOURS, 500.0)
        profile = np.full(HOURS_PER_DAY, 0.5)
        batch = schedule_run_batch(
            demand, supply, intensity, np.array([30.0, 25.0]), profile
        )
        for i, cap in enumerate((30.0, 25.0)):
            ref_shifted, ref_moved = schedule_run(
                demand, supply[i], intensity, cap, profile
            )
            assert np.array_equal(batch.shifted[i], ref_shifted)
            assert batch.moved_mwh[i] == ref_moved


# ---------------------------------------------------------------------------
# Combined heuristic kernel
# ---------------------------------------------------------------------------
class TestCombinedBatch:
    @settings(deadline=None, max_examples=40)
    @given(rows=ROWS, seed=SEEDS, deadline_hours=st.sampled_from([1, 4, 24]))
    def test_rows_bitwise_equal_serial_kernel(self, rows, seed, deadline_hours):
        demand, supply = make_traces(seed, len(rows))
        columns = battery_columns(rows)
        capacity = np.array(
            [float(demand.max()) * cap + 1.0 for _, _, _, cap in rows]
        )
        ratios = np.array([ratio for _, _, ratio, _ in rows])
        batch = combined_run_batch(
            demand,
            supply,
            capacity_mw=capacity,
            flexible_ratio=ratios,
            deadline_hours=deadline_hours,
            **columns,
        )
        for i, (spec, soc, ratio, _) in enumerate(rows):
            ref = combined_run(
                demand,
                supply[i],
                capacity_mw=float(capacity[i]),
                flexible_ratio=ratio,
                deadline_hours=deadline_hours,
                **battery_kwargs(spec, soc),
            )
            assert np.array_equal(batch.shifted_demand[i], ref.shifted_demand)
            assert np.array_equal(batch.grid_import[i], ref.grid_import)
            assert np.array_equal(batch.surplus[i], ref.surplus)
            assert np.array_equal(batch.charge_level[i], ref.charge_level)
            assert batch.deferred_mwh[i] == ref.deferred_mwh
            assert batch.late_mwh[i] == ref.late_mwh
            assert batch.unserved_mwh[i] == ref.unserved_mwh
            assert batch.charged_mwh[i] == ref.charged_mwh
            assert batch.discharged_mwh[i] == ref.discharged_mwh
            assert batch.deferral_events[i] == ref.deferral_events
        assert_finite(
            batch.shifted_demand, batch.grid_import, batch.surplus,
            batch.charge_level, batch.deferred_mwh, batch.late_mwh,
        )

    @settings(deadline=None, max_examples=20)
    @given(rows=ROWS, seed=SEEDS)
    def test_per_row_demand_block(self, rows, seed):
        """(D, H) demand — the fleet merge runs several sites' rows in one
        combined block."""
        rng = np.random.default_rng(seed)
        demand = rng.uniform(0.0, 20.0, (len(rows), N_HOURS))
        supply = rng.uniform(0.0, 40.0, (len(rows), N_HOURS))
        capacity = np.array(
            [float(demand[i].max()) * cap + 1.0 for i, (_, _, _, cap) in enumerate(rows)]
        )
        ratios = np.array([ratio for _, _, ratio, _ in rows])
        batch = combined_run_batch(
            demand,
            supply,
            capacity_mw=capacity,
            flexible_ratio=ratios,
            deadline_hours=24,
            **battery_columns(rows),
        )
        for i, (spec, soc, ratio, _) in enumerate(rows):
            ref = combined_run(
                demand[i],
                supply[i],
                capacity_mw=float(capacity[i]),
                flexible_ratio=ratio,
                deadline_hours=24,
                **battery_kwargs(spec, soc),
            )
            assert np.array_equal(batch.shifted_demand[i], ref.shifted_demand)
            assert np.array_equal(batch.grid_import[i], ref.grid_import)
            assert np.array_equal(batch.surplus[i], ref.surplus)
            assert batch.unserved_mwh[i] == ref.unserved_mwh
            assert batch.deferral_events[i] == ref.deferral_events

    @settings(deadline=None, max_examples=6)
    @given(
        rows=st.lists(
            st.tuples(
                st.sampled_from(SPEC_POOL),
                st.sampled_from([0.0, 0.5, 1.0]),
                st.sampled_from([0.0, 0.4]),
                st.sampled_from([1.2, 1.5, 3.0]),
            ),
            min_size=1,
            max_size=4,
        ),
        seed=SEEDS,
        n_hours=st.sampled_from([8760, 8784]),
        data=st.data(),
    )
    def test_site_index_form_equals_per_row_block(self, rows, seed, n_hours, data):
        """(S, H) site traces + a row->site index == the (D, H) per-row
        block == the serial kernel per row, over full (leap) years."""
        rows = [(BatterySpec(0.0), 1.0, 0.4, 1.5)] + rows  # a zero-capacity row
        n_sites = data.draw(st.integers(min_value=1, max_value=3))
        row_sites = np.array(
            data.draw(
                st.lists(
                    st.integers(min_value=0, max_value=n_sites - 1),
                    min_size=len(rows),
                    max_size=len(rows),
                )
            )
        )
        rng = np.random.default_rng(seed)
        traces = rng.uniform(0.0, 20.0, (n_sites, n_hours))
        supply = rng.uniform(0.0, 40.0, (len(rows), n_hours))
        kwargs = dict(
            capacity_mw=np.array(
                [float(traces[s].max()) * cap for s, (*_, cap) in zip(row_sites, rows)]
            ),
            flexible_ratio=np.array([ratio for _, _, ratio, _ in rows]),
            deadline_hours=24,
            **battery_columns(rows),
        )
        indexed = combined_run_batch(traces, supply, row_sites=row_sites, **kwargs)
        per_row = combined_run_batch(traces[row_sites], supply, **kwargs)
        for field in (
            "shifted_demand", "grid_import", "surplus", "charge_level",
            "deferred_mwh", "late_mwh", "unserved_mwh", "charged_mwh",
            "discharged_mwh", "deferral_events",
        ):
            assert np.array_equal(getattr(indexed, field), getattr(per_row, field))
        for i, (spec, soc, ratio, _) in enumerate(rows):
            ref = combined_run(
                traces[row_sites[i]],
                supply[i],
                capacity_mw=float(kwargs["capacity_mw"][i]),
                flexible_ratio=ratio,
                deadline_hours=24,
                **battery_kwargs(spec, soc),
            )
            assert np.array_equal(indexed.shifted_demand[i], ref.shifted_demand)
            assert np.array_equal(indexed.grid_import[i], ref.grid_import)
            assert np.array_equal(indexed.surplus[i], ref.surplus)
            assert np.array_equal(indexed.charge_level[i], ref.charge_level)
            assert indexed.deferred_mwh[i] == ref.deferred_mwh
            assert indexed.late_mwh[i] == ref.late_mwh
            assert indexed.unserved_mwh[i] == ref.unserved_mwh
            assert indexed.discharged_mwh[i] == ref.discharged_mwh
            assert indexed.deferral_events[i] == ref.deferral_events

    @settings(deadline=None, max_examples=40)
    @given(rows=ZERO_LED_ROWS, seed=SEEDS)
    def test_all_zero_ratio_block_bitwise_equal_serial_kernel(self, rows, seed):
        """A block with no flexible work (the deferral step never runs),
        compared bit for bit (sign of zero included) with the serial
        kernel's delegations to ``battery_run`` / ``renewables_only_run``."""
        traces, supply = tied_traces(seed, 1, np.zeros(len(rows), dtype=int))
        demand = traces[0]
        capacity = np.array([float(demand.max()) * cap for *_, cap in rows])
        batch = combined_run_batch(
            demand,
            supply,
            capacity_mw=capacity,
            flexible_ratio=0.0,
            deadline_hours=24,
            **battery_columns(rows),
        )
        for i, (spec, soc, _, _) in enumerate(rows):
            ref = combined_run(
                demand,
                supply[i],
                capacity_mw=float(capacity[i]),
                flexible_ratio=0.0,
                deadline_hours=24,
                **battery_kwargs(spec, soc),
            )
            for field in (
                "shifted_demand", "grid_import", "surplus", "charge_level",
                "deferred_mwh", "late_mwh", "unserved_mwh", "charged_mwh",
                "discharged_mwh",
            ):
                assert_bits_equal(getattr(batch, field)[i], getattr(ref, field))
            assert batch.deferral_events[i] == ref.deferral_events

    def test_soak_with_a_full_ring(self):
        """23 deficit hours fill every not-yet-due ring slot before each
        surplus hour, whose soak then folds a full (slots x rows) sheet:
        a partial first take, one whole entry then a partial, several
        whole entries, and a row that drains all 23 slots."""
        n_hours = 5 * HOURS_PER_DAY
        traces = np.array([np.full(n_hours, 10.0), np.full(n_hours, 8.0)])
        row_sites = np.array([0, 1, 0, 1])
        # Per row: supply in the 23 deficit hours and in the surplus hour.
        deficit_supply = np.array([2.0, 3.0, 6.0, 2.0])
        surplus_supply = np.array([13.0, 12.0, 60.0, 200.0])
        day = np.zeros((4, HOURS_PER_DAY))
        day[:, :-1] = deficit_supply[:, None]
        day[:, -1] = surplus_supply
        supply = np.tile(day, 5)
        specs = [BatterySpec(0.0)] * 2 + [BatterySpec(0.001), BatterySpec(0.0)]
        rows = [(spec, 1.0, None, None) for spec in specs]
        capacity = np.array([15.0, 14.0, 30.0, 160.0])
        ratios = np.array([0.4, 0.4, 0.4, 1.0])
        batch = combined_run_batch(
            traces,
            supply,
            row_sites=row_sites,
            capacity_mw=capacity,
            flexible_ratio=ratios,
            deadline_hours=24,
            **battery_columns(rows),
        )
        first_surplus = HOURS_PER_DAY - 1
        for i, spec in enumerate(specs):
            kwargs = dict(
                capacity_mw=float(capacity[i]),
                flexible_ratio=float(ratios[i]),
                deadline_hours=24,
                **battery_kwargs(spec, 1.0),
            )
            demand = traces[row_sites[i]]
            ref = combined_run(demand, supply[i], **kwargs)
            first_day = combined_run(
                demand[:HOURS_PER_DAY], supply[i, :HOURS_PER_DAY], **kwargs
            )
            # Every hour before the first surplus hour deferred, so all 23
            # not-yet-due slots are occupied when its soak runs, and the
            # soak ran deferred work there.
            assert first_day.deferral_events == HOURS_PER_DAY - 1
            assert ref.shifted_demand[first_surplus] > demand[first_surplus]
            assert np.array_equal(batch.shifted_demand[i], ref.shifted_demand)
            assert np.array_equal(batch.grid_import[i], ref.grid_import)
            assert np.array_equal(batch.surplus[i], ref.surplus)
            assert batch.late_mwh[i] == ref.late_mwh
            assert batch.unserved_mwh[i] == ref.unserved_mwh
            assert batch.deferral_events[i] == ref.deferral_events
        # The last row's soak drained the whole ring on the first day.
        assert first_day.unserved_mwh == 0.0

    def test_single_starved_row_exercises_overdue_matrix(self):
        """One undersupplied row defers every hour, carries overdue work
        through the matrix, and still matches the serial deque walk."""
        rng = np.random.default_rng(99)
        demand = rng.uniform(10.0, 20.0, N_HOURS)
        supply = rng.uniform(0.0, 4.0, (1, N_HOURS))
        kwargs = battery_kwargs(BatterySpec(0.001), 0.0)
        batch = combined_run_batch(
            demand,
            supply,
            capacity_mw=float(demand.max()) + 0.5,
            flexible_ratio=1.0,
            deadline_hours=2,
            **kwargs,
        )
        ref = combined_run(
            demand,
            supply[0],
            capacity_mw=float(demand.max()) + 0.5,
            flexible_ratio=1.0,
            deadline_hours=2,
            **kwargs,
        )
        assert ref.deferral_events > 0
        assert np.array_equal(batch.shifted_demand[0], ref.shifted_demand)
        assert np.array_equal(batch.grid_import[0], ref.grid_import)
        assert batch.late_mwh[0] == ref.late_mwh
        assert batch.unserved_mwh[0] == ref.unserved_mwh
        assert batch.deferral_events[0] == ref.deferral_events

    def test_deep_backlog_over_a_leap_year(self):
        """A leap year of starved rows whose overdue queues grow thousands
        of entries deep, one of them spilling at every hour it can, still
        matches the serial deque walk bit for bit.  The same call's
        allocation peak stays within its two output planes, the overdue
        buffer, the distinct supply rows and ``(D,)``-scale slack: the
        queue is allocated once and never grows by copies."""
        n_hours = 366 * HOURS_PER_DAY
        rng = np.random.default_rng(5)
        # Site 0's flat demand sits exactly at its row's capacity, so that
        # row defers every hour, never runs deferred work, and spills each
        # entry when it falls due: every hour from the deadline on.  Site
        # 1's 10-20 MW demand leaves its rows 0.5 MW, 4 MW and 20 % of
        # headroom over the peak: row 1 stays backlogged all year, rows 2
        # and 3 drain and refill.
        traces = np.array([np.full(n_hours, 10.0), rng.uniform(10.0, 20.0, n_hours)])
        row_sites = np.array([0, 1, 1, 1])
        row_supply = np.array([0, 1, 1, 2])  # rows 1 and 2 share a supply row
        specs = [BatterySpec(0.0), BatterySpec(0.0), BatterySpec(5.0), BatterySpec(5.0)]
        rows = [(spec, 1.0, None, None) for spec in specs]
        site_peak = float(traces[1].max())
        capacity = np.array([10.0, site_peak + 0.5, site_peak + 4.0, site_peak * 1.2])
        ratios = np.array([1.0, 1.0, 0.5, 0.5])
        columns = battery_columns(rows)
        tracemalloc.start()
        try:
            supply = np.empty((3, n_hours))
            supply[:2] = rng.uniform(0.0, 4.0, (2, n_hours))
            supply[2] = rng.uniform(0.0, 30.0, n_hours)
            batch = combined_run_batch(
                traces,
                supply,
                row_sites=row_sites,
                row_supply=row_supply,
                capacity_mw=capacity,
                flexible_ratio=ratios,
                deadline_hours=24,
                planes=False,
                **columns,
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n_rows = len(rows)
        plane = n_rows * n_hours * 8
        overdue = n_rows * (n_hours + 1) * 8
        # 64 (D,) columns plus 64 KiB of interpreter objects.  A queue that
        # grows by doubling copies overshoots this bound by about 1 MB.
        slack = 64 * 1024 + 64 * n_rows * 8
        assert peak <= 2 * plane + overdue + supply.nbytes + slack

        refs = []
        for i, spec in enumerate(specs):
            ref = combined_run(
                traces[row_sites[i]],
                supply[row_supply[i]],
                capacity_mw=float(capacity[i]),
                flexible_ratio=float(ratios[i]),
                deadline_hours=24,
                **battery_kwargs(spec, 1.0),
            )
            for field in (
                "grid_import", "surplus", "deferred_mwh", "late_mwh",
                "unserved_mwh", "charged_mwh", "discharged_mwh",
            ):
                assert_bits_equal(getattr(batch, field)[i], getattr(ref, field))
            assert batch.deferral_events[i] == ref.deferral_events
            refs.append(ref)
        # Row 0 ran nothing it deferred: all 8784 entries are still queued,
        # and the 8760 whose deadline passed each spilled at that hour.
        assert refs[0].deferral_events == n_hours
        assert refs[0].late_mwh == 0.0
        assert refs[0].unserved_mwh == refs[0].deferred_mwh
        # Entries hold at most 20 MWh, so row 1 ends over 1000 entries deep.
        assert refs[1].late_mwh > 0.0
        assert refs[1].unserved_mwh > 1000 * 20.0

    def test_step1_walk_takes_several_entries_and_drains_others(self):
        """Hours where one row's deadline walk takes three whole buffer
        entries and ends on a partial take, while other candidate rows of
        the same walk drain their buffers to zero and sit out the later
        rounds, in the multi-site ``row_sites`` + ``row_supply`` form."""
        n_hours, busy = N_HOURS, 8
        # Both sites run at capacity for the first ``busy`` hours, so every
        # deferral falls due with no headroom and moves to the due buffer;
        # at hour ``busy`` demand drops and leaves 7 MWh of headroom.
        traces = np.array([np.full(n_hours, 10.0), np.full(n_hours, 20.0)])
        traces[:, busy] -= 7.0
        # Distinct supply rows.  Row 0 runs 2 MWh short in every busy
        # hour; row 1 only in hours 4 and 5; row 2 covers its demand.
        supply = np.array([np.full(n_hours, 8.0), np.full(n_hours, 20.0), np.full(n_hours, 20.0)])
        supply[1, 4:6] = 18.0
        supply[:, busy] = 25.0  # the walk hour has surplus: no deferral
        row_sites = np.array([0, 1, 0, 1])
        row_supply = np.array([0, 1, 0, 1])
        capacity = np.array([10.0, 20.0, 10.0, 20.0])
        ratios = np.array([1.0, 1.0, 0.5, 0.0])
        specs = [BatterySpec(0.0), BatterySpec(0.0), BatterySpec(0.0), BatterySpec(5.0)]
        rows = [(spec, 1.0, None, None) for spec in specs]
        batch = combined_run_batch(
            traces,
            supply,
            row_sites=row_sites,
            row_supply=row_supply,
            capacity_mw=capacity,
            flexible_ratio=ratios,
            deadline_hours=2,
            **battery_columns(rows),
        )
        refs = []
        for i, spec in enumerate(specs):
            ref = combined_run(
                traces[row_sites[i]],
                supply[row_supply[i]],
                capacity_mw=float(capacity[i]),
                flexible_ratio=float(ratios[i]),
                deadline_hours=2,
                **battery_kwargs(spec, 1.0),
            )
            for field in TestDistinctSupplyRows.FIELDS + ("shifted_demand",):
                assert_bits_equal(getattr(batch, field)[i], getattr(ref, field))
            refs.append(ref)
        # Row 0 entered the walk hour owing six overdue 2 MWh entries and
        # the one due now: it took three whole and 1 MWh of the fourth,
        # all late, and used all of its headroom.
        before = combined_run(
            traces[0, :busy], supply[0, :busy], capacity_mw=10.0,
            flexible_ratio=1.0, deadline_hours=2, **battery_kwargs(specs[0], 1.0),
        )
        assert refs[0].shifted_demand[busy] == 10.0
        assert refs[0].late_mwh == 7.0 and before.late_mwh == 0.0
        # Row 2 shares row 0's site and supply row at half the ratio, which
        # still defers the whole 2 MWh: it walks in step with row 0.
        assert refs[2].shifted_demand[busy] == 10.0
        # Row 1 owed two entries, took both and kept headroom: it drained
        # in the second round while rows 0 and 2 walked on.
        assert refs[1].shifted_demand[busy] == 13.0 + 4.0
        assert refs[1].unserved_mwh == 0.0

    def test_charge_plane_opt_out(self):
        """``planes=False`` skips both diagnostic planes, nothing else."""
        demand, supply = make_traces(13, 2)
        kwargs = battery_kwargs(BatterySpec(5.0), 1.0)
        slim = combined_run_batch(
            demand,
            supply,
            capacity_mw=float(demand.max()) * 1.5,
            flexible_ratio=0.25,
            deadline_hours=24,
            planes=False,
            **kwargs,
        )
        full = combined_run_batch(
            demand,
            supply,
            capacity_mw=float(demand.max()) * 1.5,
            flexible_ratio=0.25,
            deadline_hours=24,
            **kwargs,
        )
        assert np.array_equal(slim.grid_import, full.grid_import)
        assert np.array_equal(slim.surplus, full.surplus)
        assert np.array_equal(slim.deferred_mwh, full.deferred_mwh)
        for plane in ("shifted_demand", "charge_level"):
            with pytest.raises(AttributeError, match="planes=False"):
                getattr(slim, plane)

    def test_rejects_non_positive_deadline(self):
        demand, supply = make_traces(1, 1)
        with pytest.raises(ValueError, match="deadline_hours"):
            combined_run_batch(
                demand,
                supply,
                capacity_mw=30.0,
                flexible_ratio=0.5,
                deadline_hours=0,
                **battery_kwargs(BatterySpec(5.0), 1.0),
            )


# ---------------------------------------------------------------------------
# Distinct supply rows
# ---------------------------------------------------------------------------
class TestDistinctSupplyRows:
    """``(U, H)`` distinct supply rows plus a ``row_supply`` index equal
    the stacked ``(D, H)`` block bit for bit, sign of zero included."""

    FIELDS = (
        "grid_import", "surplus", "charge_level", "deferred_mwh", "late_mwh",
        "unserved_mwh", "charged_mwh", "discharged_mwh", "deferral_events",
    )

    @staticmethod
    def layout(rows, seed, multi_site, data):
        """Demand, distinct supply rows, row->site and row->supply indices.

        The supply labels are relabelled to ``0..U-1``, each used at least
        once, so blocks mix repeated and singleton supply rows.  Each
        distinct row ties about a third of its hours to the demand of its
        first design's site, where the lockstep loops meet ``-0.0``.
        """
        n_rows = len(rows)
        n_sites = data.draw(st.integers(min_value=2, max_value=3)) if multi_site else 1
        row_sites = np.array(
            data.draw(
                st.lists(
                    st.integers(min_value=0, max_value=n_sites - 1),
                    min_size=n_rows,
                    max_size=n_rows,
                )
            )
        )
        labels = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=n_rows - 1),
                min_size=n_rows,
                max_size=n_rows,
            )
        )
        _, first, row_supply = np.unique(labels, return_index=True, return_inverse=True)
        traces, stacked = tied_traces(seed, n_sites, row_sites)
        demand = traces if multi_site else traces[0]
        return demand, traces, stacked[first], (row_sites if multi_site else None), row_supply

    @settings(deadline=None, max_examples=40)
    @given(
        rows=ZERO_LED_ROWS,
        seed=SEEDS,
        multi_site=st.booleans(),
        deadline_hours=st.sampled_from([4, 24]),
        data=st.data(),
    )
    def test_combined_kernel(self, rows, seed, multi_site, deadline_hours, data):
        demand, traces, distinct, row_sites, row_supply = self.layout(
            rows, seed, multi_site, data
        )
        site_of = row_sites if multi_site else np.zeros(len(rows), dtype=int)
        kwargs = dict(
            capacity_mw=np.array(
                [float(traces[s].max()) * cap for s, (*_, cap) in zip(site_of, rows)]
            ),
            flexible_ratio=np.array([ratio for _, _, ratio, _ in rows]),
            deadline_hours=deadline_hours,
            row_sites=row_sites,
            **battery_columns(rows),
        )
        indexed = combined_run_batch(demand, distinct, row_supply=row_supply, **kwargs)
        stacked = combined_run_batch(demand, distinct[row_supply], **kwargs)
        for field in self.FIELDS + ("shifted_demand",):
            assert_bits_equal(getattr(indexed, field), getattr(stacked, field))

    @settings(deadline=None, max_examples=40)
    @given(rows=ZERO_LED_ROWS, seed=SEEDS, multi_site=st.booleans(), data=st.data())
    def test_battery_kernel(self, rows, seed, multi_site, data):
        demand, _, distinct, row_sites, row_supply = self.layout(
            rows, seed, multi_site, data
        )
        kwargs = dict(row_sites=row_sites, **battery_columns(rows))
        indexed = battery_run_batch(demand, distinct, row_supply=row_supply, **kwargs)
        stacked = battery_run_batch(demand, distinct[row_supply], **kwargs)
        for field in self.FIELDS:
            assert_bits_equal(getattr(indexed, field), getattr(stacked, field))


# ---------------------------------------------------------------------------
# Outcome encoding: one value plane plus the hour-major short mask
# ---------------------------------------------------------------------------
def assert_row_outcome_bits(batch, i, ref):
    """Row ``i``'s rebuilt grid import and surplus equal the serial run's
    bit for bit, through both :meth:`row_outcome` and the full planes."""
    grid, surplus = batch.row_outcome(i)
    for rebuilt, expected in (
        (grid, ref.grid_import),
        (surplus, ref.surplus),
        (batch.grid_import[i], ref.grid_import),
        (batch.surplus[i], ref.surplus),
    ):
        rebuilt = np.asarray(rebuilt, dtype=float)
        assert rebuilt.shape == expected.shape
        assert np.array_equal(rebuilt.view(np.int64), expected.view(np.int64))


def edge_hour_traces(n_hours, n_rows, seed):
    """A site trace and a ``(n_rows, H)`` supply block whose hours cycle
    through four kinds: every row short (no supply), every row in surplus
    (supply far above demand), every row exactly at demand (a zero gap,
    where ``-0.0`` arises), and random mixed hours."""
    rng = np.random.default_rng(seed)
    demand = rng.uniform(5.0, 20.0, n_hours)
    supply = rng.uniform(0.0, 40.0, (n_rows, n_hours))
    kind = np.arange(n_hours) % 4
    supply[:, kind == 0] = 0.0
    supply[:, kind == 1] = 100.0
    supply[:, kind == 2] = demand[kind == 2]
    return demand, supply


class TestOutcomeEncoding:
    """The kernels record each hour's outcome once: a ``(D, H)`` value
    plane (grid import where the row ran short, else surplus) and an
    ``(H, D)`` bool ``short`` mask.  The rebuilt planes must equal the
    serial kernels' bit for bit, signed zeros included — ``np.array_equal``
    treats ``-0.0 == +0.0``, so these compare integer bit patterns."""

    @settings(deadline=None, max_examples=40)
    @given(
        rows=ZERO_LED_ROWS,
        seed=SEEDS,
        multi_site=st.booleans(),
        deadline_hours=st.sampled_from([4, 24]),
        data=st.data(),
    )
    def test_merged_block_rebuilds_serial_bits(
        self, rows, seed, multi_site, deadline_hours, data
    ):
        """Multi-site merged blocks (``row_sites`` + ``row_supply``) with
        zero-ratio rows and tied hours, against ``combined_run``."""
        demand, traces, distinct, row_sites, row_supply = TestDistinctSupplyRows.layout(
            rows, seed, multi_site, data
        )
        site_of = row_sites if multi_site else np.zeros(len(rows), dtype=int)
        capacity = np.array(
            [float(traces[s].max()) * cap for s, (*_, cap) in zip(site_of, rows)]
        )
        ratios = np.array([ratio for _, _, ratio, _ in rows])
        batch = combined_run_batch(
            demand,
            distinct,
            capacity_mw=capacity,
            flexible_ratio=ratios,
            deadline_hours=deadline_hours,
            row_sites=row_sites,
            row_supply=row_supply,
            planes=False,
            **battery_columns(rows),
        )
        assert batch.value.shape == (len(rows), N_HOURS)
        assert batch.short.shape == (N_HOURS, len(rows))
        assert batch.short.dtype == np.bool_
        for i, (spec, soc, ratio, _) in enumerate(rows):
            ref = combined_run(
                traces[site_of[i]],
                distinct[row_supply[i]],
                capacity_mw=float(capacity[i]),
                flexible_ratio=float(ratio),
                deadline_hours=deadline_hours,
                **battery_kwargs(spec, soc),
            )
            assert_row_outcome_bits(batch, i, ref)

    @pytest.mark.parametrize("with_battery", [True, False])
    def test_all_short_and_all_surplus_hours(self, with_battery):
        """Hours where every row runs short, every row has surplus, every
        row meets demand exactly, and mixed hours; zero-ratio rows sit
        beside deferring ones.  A block without any battery keeps the
        serial kernel's ``-0.0`` grid import at zero-gap hours, which the
        value plane must carry through."""
        n_hours = 3 * HOURS_PER_DAY
        spec = BatterySpec(5.0) if with_battery else BatterySpec(0.0)
        rows = [
            (BatterySpec(0.0), 1.0, 0.0, 1.5),
            (spec, 0.5, 0.0, 1.5),
            (spec, 1.0, 0.4, 1.2),
            (BatterySpec(0.0), 1.0, 1.0, 3.0),
        ]
        demand, supply = edge_hour_traces(n_hours, len(rows), seed=17)
        capacity = np.array([float(demand.max()) * cap for *_, cap in rows])
        batch = combined_run_batch(
            demand,
            supply,
            capacity_mw=capacity,
            flexible_ratio=np.array([ratio for _, _, ratio, _ in rows]),
            deadline_hours=24,
            planes=False,
            **battery_columns(rows),
        )
        # The block really holds all-short and all-surplus hours.
        per_hour = batch.short.sum(axis=1)
        assert (per_hour == len(rows)).any() and (per_hour == 0).any()
        refs = []
        for i, (row_spec, soc, ratio, _) in enumerate(rows):
            ref = combined_run(
                demand,
                supply[i],
                capacity_mw=float(capacity[i]),
                flexible_ratio=ratio,
                deadline_hours=24,
                **battery_kwargs(row_spec, soc),
            )
            assert_row_outcome_bits(batch, i, ref)
            refs.append(ref)
        if not with_battery:
            assert np.signbit(refs[3].grid_import).any()

    def test_battery_kernel_rebuilds_serial_bits(self):
        """``battery_run_batch`` (the kernel at flexible ratio 0) over the
        same edge hours, with a zero-capacity row, against ``battery_run``."""
        rows = [
            (BatterySpec(0.0), 1.0, 0.0, 1.5),
            (BatterySpec(0.001), 0.0, 0.0, 1.5),
            (BatterySpec(40.0, depth_of_discharge=0.8), 0.5, 0.0, 1.5),
        ]
        n_hours = 3 * HOURS_PER_DAY
        demand, supply = edge_hour_traces(n_hours, len(rows), seed=23)
        batch = battery_run_batch(demand, supply, planes=False, **battery_columns(rows))
        for i, (spec, soc, _, _) in enumerate(rows):
            ref = battery_run(demand, supply[i], **battery_kwargs(spec, soc))
            assert_row_outcome_bits(batch, i, ref)

    def test_value_plane_holds_the_written_outcome(self):
        """Where a row ran short the value plane holds its grid import,
        elsewhere its surplus; the outcome it did not have is ``+0.0``."""
        rows = [(BatterySpec(5.0), 0.5, 0.4, 1.5), (BatterySpec(0.0), 1.0, 0.0, 1.2)]
        demand, supply = edge_hour_traces(N_HOURS, len(rows), seed=5)
        batch = combined_run_batch(
            demand,
            supply,
            capacity_mw=float(demand.max()) * 1.5,
            flexible_ratio=np.array([0.4, 0.0]),
            deadline_hours=24,
            **battery_columns(rows),
        )
        short = batch.short.T
        grid, surplus = batch.grid_import, batch.surplus
        assert_bits_equal(np.where(short, grid, surplus), batch.value)
        assert_bits_equal(grid[~short], np.zeros(np.count_nonzero(~short)))
        assert_bits_equal(surplus[short], np.zeros(np.count_nonzero(short)))


class TestOutcomeMemory:
    def test_planes_false_call_allocates_under_10_bytes_per_design_hour(self):
        """A ``planes=False`` call allocates its value plane (8 bytes per
        design-hour), the short mask (1) and ``(D,)``-scale state through
        numpy: at most 10 bytes per design-hour.  The due buffer is an
        anonymous mapping, outside the allocator tracemalloc sees; two
        float output planes plus a zeroed ``np.zeros`` due buffer would
        trace about 24."""
        n_rows, n_hours = 64, 366 * HOURS_PER_DAY
        rng = np.random.default_rng(3)
        demand = rng.uniform(5.0, 20.0, n_hours)
        supply = rng.uniform(0.0, 40.0, (4, n_hours))
        row_supply = np.arange(n_rows) % 4
        specs = [BatterySpec(0.0), BatterySpec(5.0), BatterySpec(40.0), BatterySpec(0.001)]
        rows = [(specs[i % 4], 1.0, None, None) for i in range(n_rows)]
        columns = battery_columns(rows)
        ratios = np.where(np.arange(n_rows) % 2 == 0, 0.4, 0.0)
        capacity = float(demand.max()) * 1.2
        tracemalloc.start()
        try:
            batch = combined_run_batch(
                demand,
                supply,
                row_supply=row_supply,
                capacity_mw=capacity,
                flexible_ratio=ratios,
                deadline_hours=24,
                planes=False,
                **columns,
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert batch.deferral_events.sum() > 0
        assert peak <= 10 * n_rows * n_hours


# ---------------------------------------------------------------------------
# Surplus-soak hazard replay
# ---------------------------------------------------------------------------
def ref_fifo_walk(entries, budget, queued):
    """Independent reimplementation of the serial ``run_queued`` FIFO walk
    over one row's soak entries (emptied lanes hold exact zeros)."""
    left = np.array(entries, copy=True)
    executed = 0.0
    for k, amount in enumerate(entries):
        if amount == 0.0:  # repro-lint: disable=RL005 — exact sentinel; emptied lanes hold exact zeros
            continue
        if budget - executed <= _EPSILON_MWH:
            break
        take = min(amount, budget - executed)
        executed += take
        queued -= take  # repro-lint: disable=RL003 — scalar fold accumulator, returned to the caller
        left[k] = 0.0 if take >= amount - _EPSILON_MWH else amount - take
    return left, executed, queued


class TestSoakExactColumn:
    #: Lane pool dominated by epsilon-scale values: the hazard replay only
    #: fires when the cumsum sheet's partial-take gate is ulp-ambiguous,
    #: so the interesting inputs all live within a few eps of the budget.
    LANES = st.lists(
        st.sampled_from(
            [0.0, 5e-10, 1e-9, 2e-9, 1e-8, 0.5, 1.0, 3.0, 7.0]
        ),
        min_size=1,
        max_size=8,
    )

    @settings(deadline=None, max_examples=200)
    @given(
        lanes=LANES,
        budget=st.sampled_from(
            [0.0, 5e-10, 1e-9, 2e-9, 0.5, 1.0, 1.0 + 1e-9, 4.0, 100.0]
        ),
    )
    def test_matches_serial_fifo_walk(self, lanes, budget):
        entries = np.array(lanes)
        queued = float(entries.sum())
        ref_left, ref_executed, ref_queued = ref_fifo_walk(
            entries, budget, queued
        )
        # The caller hands in the cumsum sheet's leftover column, whose
        # emptied/zero lanes already hold exact zeros; the replay only
        # rewrites lanes it visits.
        left = np.zeros_like(entries)
        executed, queued_after = _soak_exact_column(
            entries, left, budget, queued
        )
        assert np.array_equal(left, ref_left)
        assert executed == ref_executed
        assert queued_after == ref_queued


# ---------------------------------------------------------------------------
# Soak replay of rows with work left in the due buffer
# ---------------------------------------------------------------------------
def ref_run_queued(entries, budget, now, queued, late):
    """The serial kernel's ``run_queued(budget, now, False)`` over a FIFO
    of ``(deadline, amount)`` entries; returns the executed total, the
    queue and lateness meters and the entries left."""
    queue = deque(entries)
    executed = 0.0
    while queue and budget - executed > _EPSILON_MWH:
        deadline, amount = queue[0]
        take = min(amount, budget - executed)
        executed += take
        queued -= take  # repro-lint: disable=RL003 — scalar fold accumulator, returned to the caller
        if deadline < now:
            late += take  # repro-lint: disable=RL003 — scalar fold accumulator, returned to the caller
        if take >= amount - _EPSILON_MWH:
            queue.popleft()
        else:
            queue[0] = (deadline, amount - take)
    return executed, queued, late, list(queue)


class TestSoakReplayRows:
    """``_soak_replay_rows`` against the serial soak walk, row by row.

    Each row is ``(buffer, fresh, ring, budget)``: the amounts in its due
    buffer (oldest first; the last one appended this hour when ``fresh``),
    its not-yet-due ring amounts by hours ahead (0.0 is an empty slot) and
    its soak budget.
    """

    HOUR = 9
    DEADLINE = 4
    WIDTH = 12

    def run(self, rows):
        ring_n = self.DEADLINE + 1
        n_rows = len(rows)
        order = (self.HOUR % ring_n + np.arange(1, self.DEADLINE)) % ring_n
        # Each row's span starts with a popped slot holding stale work.
        qflat = np.full(n_rows * self.WIDTH, 7.0)
        head = np.arange(n_rows, dtype=np.int64) * self.WIDTH + 1
        tail = head.copy()
        ring_amt = np.zeros((ring_n, n_rows))
        fresh = np.zeros(n_rows, dtype=bool)
        budget = np.array([row[3] for row in rows])
        gap = budget + 1.0
        load = np.full(n_rows, 10.0)
        late = np.full(n_rows, 0.25)
        queued = np.empty(n_rows)
        queues = []
        for r, (buffer, is_fresh, ring, _) in enumerate(rows):
            queue = []
            for k, amount in enumerate(buffer):
                qflat[tail[r]] = amount
                tail[r] += 1
                if is_fresh and k == len(buffer) - 1:
                    fresh[r] = True
                    queue.append((self.HOUR, amount))
                else:
                    queue.append((self.HOUR - len(buffer) + k, amount))
            qflat[tail[r]:(r + 1) * self.WIDTH] = 0.0
            for ahead, amount in enumerate(ring, start=1):
                ring_amt[order[ahead - 1], r] = amount
                if amount > 0.0:
                    queue.append((self.HOUR + ahead, amount))
            queued[r] = sum(amount for _, amount in queue) + 1.0
            queues.append(queue)
        expected = []
        for r, queue in enumerate(queues):
            expected.append(
                ref_run_queued(
                    queue, float(budget[r]), self.HOUR, float(queued[r]), float(late[r])
                )
            )
        gap0 = gap.copy()
        soak_mask = np.ones(n_rows, dtype=bool)
        _soak_replay_rows(
            np.arange(n_rows), soak_mask, budget, queued, late, load, gap,
            qflat, head, tail, ring_amt, order, fresh if fresh.any() else None,
        )
        assert not soak_mask.any()
        for r, (executed, queued_r, late_r, left) in enumerate(expected):
            assert_bits_equal(load[r], 10.0 + executed)
            assert_bits_equal(gap[r], max(float(gap0[r]) - executed, 0.0))
            assert_bits_equal(queued[r], queued_r)
            assert_bits_equal(late[r], late_r)
            # What the serial queue still holds, the buffer and ring hold.
            buffered = qflat[head[r]:tail[r]].tolist()
            assert buffered == [amount for deadline, amount in left[:len(buffered)]]
            assert all(deadline <= self.HOUR for deadline, _ in left[:len(buffered)])
            in_ring = {deadline - self.HOUR: amount for deadline, amount in left[len(buffered):]}
            for ahead in range(1, self.DEADLINE):
                assert ring_amt[order[ahead - 1], r] == in_ring.get(ahead, 0.0)
        return head - tail, ring_amt[order], late

    def test_budget_drains_the_buffer_then_reaches_the_ring(self):
        owed, ring, _ = self.run([([1.0, 2.0], False, [0.5, 0.0, 3.0], 4.0)])
        assert owed[0] == 0
        assert ring[:, 0].tolist() == [0.0, 0.0, 2.5]

    def test_partial_take_leaves_a_residual(self):
        owed, _, late = self.run([([3.0, 1.0], False, [2.0, 0.0, 0.0], 2.0)])
        assert owed[0] == -2  # both entries still owed, the head one cut
        assert late[0] == 0.25 + 2.0

    def test_entry_appended_this_hour_is_not_late(self):
        owed, _, late = self.run([([1.0, 2.0], True, [0.0, 0.0, 0.0], 10.0)])
        assert owed[0] == 0
        assert late[0] == 0.25 + 1.0  # the overdue entry only

    @settings(deadline=None, max_examples=150)
    @given(
        rows=st.lists(
            st.tuples(
                st.lists(
                    st.sampled_from([5e-10, 1e-9, 2e-9, 0.5, 1.0, 3.0]),
                    min_size=0,
                    max_size=4,
                ),
                st.booleans(),
                st.lists(
                    st.sampled_from([0.0, 5e-10, 1e-9, 0.5, 2.0]),
                    min_size=3,
                    max_size=3,
                ),
                st.sampled_from([2e-9, 0.5, 1.0, 1.0 + 1e-9, 4.0, 100.0]),
            ).map(lambda row: (row[0], row[1] and bool(row[0]), row[2], row[3])),
            min_size=1,
            max_size=4,
        )
    )
    def test_matches_serial_walk(self, rows):
        self.run(rows)
