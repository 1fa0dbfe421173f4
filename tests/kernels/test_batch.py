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
row->site index (the fleet-merge layouts), hours where supply equals
demand exactly (where ``-0.0`` arises), full leap and non-leap years,
a soak over a full deadline ring, the ``planes=False`` output-plane
opt-out, NaN-freedom, and the surplus-soak hazard replay helper against
an independent reimplementation of the serial FIFO walk.
"""

from __future__ import annotations

import dataclasses

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
from repro.kernels.batch import _EPSILON_MWH, _soak_exact_column
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
