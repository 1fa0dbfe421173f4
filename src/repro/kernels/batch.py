"""Batched (design × hour) kernels for whole-grid sweeps.

The serial kernels (:mod:`.battery`, :mod:`.greedy`, :mod:`.combined`)
spend one Python year-loop per design; an exhaustive sweep multiplies that
loop by the grid size.  The kernels here run the *same* hour loop once for
a whole block of designs: ``supply`` becomes a ``(D, H)`` block — one row
per design's solar/wind mix, broadcast from the memoized per-axis
projections — and every per-design scalar (battery capacity, DoD floor,
datacenter capacity, flexible ratio) becomes a ``(D,)`` column, so each
hour's state update is a handful of vectorized row-wise operations instead
of ``D`` interpreter iterations.

Bitwise contract
----------------

Every batch kernel is **bitwise identical** to mapping its serial
counterpart over the rows (property-tested in
``tests/kernels/test_batch.py``).  That is only possible because numpy's
elementwise ufuncs perform the same IEEE-754 operation per lane that the
scalar loop performs per design; the subtleties are sign-of-zero and
reduction order:

* masked updates use the multiply-by-bool idiom followed by ``+ 0.0``
  normalization (``x * False`` is ``-0.0`` when ``x`` is negative, and
  adding ``+0.0`` maps ``-0.0`` to ``+0.0`` while leaving every other
  double untouched), after which an unconditional ``+=`` / ``-=`` is a
  bitwise no-op in the masked-off lanes;
* meter totals accumulate as explicit per-hour (per-move) vector adds —
  a left fold in the serial visit order — never ``np.sum``, whose pairwise
  reduction would round differently;
* clamp chains replicate the serial comparison order exactly
  (``min`` with the serial tie-breaking side, then the limit clamp, then
  the ``max(…, 0.0)`` floor), which also normalizes any ``-0.0``
  candidate power to ``+0.0`` exactly like the scalar branches do.

Degenerate rows (zero battery capacity, zero flexible ratio) stay in the
block: their lanes reproduce the serial kernels' vectorized short-circuits
bitwise (``-(a - b)`` equals ``b - a`` bitwise, and the masked lanes never
observe a stray ``-0.0`` thanks to the normalizations above), so callers
never need to split a block by configuration.

Kernel purity: inputs are read-only (gathers copy; every mutated array is
freshly allocated here), there is no I/O, and the only imports are numpy
and stdlib containers — the same contract RL003 enforces for the serial
kernels.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

#: Mirrors ``combined_run``'s queue epsilon (MWh).
_EPSILON_MWH = 1e-9

#: Mirrors ``schedule_run``'s move epsilon (MW).
_MIN_MOVE_MW = 1e-9

_HOURS_PER_DAY = 24

#: Column width of the blocked (H, D) -> (D, H) transpose copies.
_TRANSPOSE_BLOCK = 512


class BatteryRunBatch:
    """Row-stacked :class:`~repro.kernels.battery.BatteryRunArrays`.

    Hourly fields are ``(D, H)``; meter totals are ``(D,)``.  The
    ``charge_level`` plane materializes lazily from the kernel's
    hour-major scratch on first access: sweep evaluation never reads it,
    and each ``(H, D) -> (D, H)`` transpose copy is a full pass over the
    block's memory footprint.
    """

    __slots__ = (
        "grid_import", "surplus", "charged_mwh", "discharged_mwh",
        "_charge_t", "_charge",
    )

    def __init__(self, grid_import, surplus, charge_t, charged_mwh,
                 discharged_mwh):
        self.grid_import = grid_import
        self.surplus = surplus
        self.charged_mwh = charged_mwh
        self.discharged_mwh = discharged_mwh
        self._charge_t = charge_t
        self._charge = None

    @property
    def charge_level(self) -> np.ndarray:
        """The ``(D, H)`` end-of-hour stored-energy plane."""
        if self._charge is None:
            if self._charge_t is None:
                raise AttributeError(
                    "charge_level was not recorded (charge_plane=False)"
                )
            self._charge = _transpose_copy(self._charge_t)
            self._charge_t = None
        return self._charge


class ScheduleRunBatch(NamedTuple):
    """Row-stacked :func:`~repro.kernels.greedy.schedule_run` outcome."""

    shifted: np.ndarray
    moved_mwh: np.ndarray


class CombinedRunBatch:
    """Row-stacked :class:`~repro.kernels.combined.CombinedRunArrays`.

    Hourly fields are ``(D, H)``; meter totals are ``(D,)``.  The
    ``shifted_demand`` and ``charge_level`` diagnostic planes exist only
    when the kernel ran with ``planes=True``: the sweep path reads
    ``grid_import``/``surplus`` and the meter columns alone, so it skips
    recording them, and reading a skipped plane raises
    ``AttributeError`` naming the keyword.
    """

    __slots__ = (
        "grid_import", "surplus", "deferred_mwh", "late_mwh",
        "unserved_mwh", "charged_mwh", "discharged_mwh", "deferral_events",
        "shifted_demand", "charge_level",
    )

    def __init__(self, grid_import, surplus, deferred_mwh, late_mwh,
                 unserved_mwh, charged_mwh, discharged_mwh, deferral_events,
                 shifted_demand=None, charge_level=None):
        self.grid_import = grid_import
        self.surplus = surplus
        self.deferred_mwh = deferred_mwh
        self.late_mwh = late_mwh
        self.unserved_mwh = unserved_mwh
        self.charged_mwh = charged_mwh
        self.discharged_mwh = discharged_mwh
        self.deferral_events = deferral_events
        if shifted_demand is not None:
            self.shifted_demand = shifted_demand
            self.charge_level = charge_level

    def __getattr__(self, name):
        # Reached only when normal lookup fails: an unset plane slot or an
        # unknown name.
        if name in ("shifted_demand", "charge_level"):
            raise AttributeError(f"{name} was not recorded (planes=False)")
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )


def _rows(value, n_rows: int) -> np.ndarray:
    """A per-design parameter as a read-only ``(n_rows,)`` float view."""
    return np.broadcast_to(np.asarray(value, dtype=float), (n_rows,))


def _transpose_copy(src: np.ndarray) -> np.ndarray:
    """Blocked ``(H, D) -> (D, H)`` contiguous transpose copy.

    The hour loops write hour-major scratch (``out[h] = row_state`` is one
    contiguous store); results go back to the row-major layout callers
    slice per design.  Copying in square tiles keeps both sides of the
    transpose cache-resident even when the row axis outgrows the cache
    (merged multi-site blocks reach a few thousand rows).
    """
    n_hours, n_rows = src.shape
    out = np.empty((n_rows, n_hours))
    _transpose_into(out, src)
    return out


def _transpose_into(dst: np.ndarray, src: np.ndarray) -> None:
    """Tiled ``(H, D) -> (D, H)`` transpose into an existing buffer.

    Callers recycle a dead hour-major scratch plane (reshaped row-major)
    as ``dst``: its pages are already faulted in, which roughly halves
    the cost of materializing an output plane versus a fresh allocation.
    """
    n_hours, n_rows = src.shape
    for r0 in range(0, n_rows, _TRANSPOSE_BLOCK):
        r1 = r0 + _TRANSPOSE_BLOCK
        for h0 in range(0, n_hours, _TRANSPOSE_BLOCK):
            h1 = h0 + _TRANSPOSE_BLOCK
            dst[r0:r1, h0:h1] = src[h0:h1, r0:r1].T


def battery_run_batch(
    demand: np.ndarray,
    supply: np.ndarray,
    *,
    capacity_mwh,
    floor_mwh,
    max_charge_mw,
    max_discharge_mw,
    charge_efficiency,
    discharge_efficiency,
    initial_energy_mwh,
    charge_plane: bool = True,
) -> BatteryRunBatch:
    """:func:`~repro.kernels.battery.battery_run` over a design block.

    ``demand`` is the shared ``(H,)`` trace — or a ``(D, H)`` block giving
    each row its own trace, which lets one call span several sites;
    ``supply`` is ``(D, H)`` with one row per design; every keyword is a
    ``(D,)`` column (scalars broadcast).  Zero-capacity rows reproduce
    :func:`~repro.kernels.battery.renewables_only_run` bitwise without
    leaving the block.  Sweeps reach it only when batching is forced
    (``REPRO_BATCH_MIN_ROWS``); by default battery blocks run
    :func:`~repro.kernels.battery.battery_run_seeded` per row.

    Preconditions (the wrappers validate them): finite non-negative
    demand/supply, efficiencies in ``(0, 1]``, ``floor <= initial <=
    capacity`` per row, and no ``-0.0`` in the inputs.
    """
    n_rows, n_hours = supply.shape
    cap = _rows(capacity_mwh, n_rows)
    hasb = cap > 0.0
    # The serial kernel's zero-capacity short-circuit ignores the floor and
    # the initial energy entirely; pin those lanes to 0.0 so the lockstep
    # recurrence holds the rail (charge/discharge power clips to +0.0) and
    # charge_level reproduces the degenerate path's zeros.
    floor = np.where(hasb, _rows(floor_mwh, n_rows), 0.0)
    energy = np.where(hasb, _rows(initial_energy_mwh, n_rows), 0.0)
    maxc = _rows(max_charge_mw, n_rows)
    maxd = _rows(max_discharge_mw, n_rows)
    eta_c = _rows(charge_efficiency, n_rows)
    eta_d = _rows(discharge_efficiency, n_rows)

    # Row pre-pass, shared by every hour: the signed gap and its negation.
    # (Fresh allocations — never write through a view of the input block.)
    dem_cols = demand.T if demand.ndim == 2 else demand[:, None]
    gap_t = np.subtract(supply.T, dem_cols)
    req_t = np.negative(gap_t)

    surplus_t = np.empty((n_hours, n_rows))
    grid_t = np.empty((n_hours, n_rows))
    # Pure output; sweeps never read it, so they skip the plane entirely.
    charge_t = np.empty((n_hours, n_rows)) if charge_plane else None
    charged = np.zeros(n_rows)
    discharged = np.zeros(n_rows)
    power = np.empty(n_rows)
    limit = np.empty(n_rows)
    scratch = np.empty(n_rows)

    for hour in range(n_hours):
        gap = gap_t[hour]
        # Charge on surplus: the exact serial clamp chain.  Deficit lanes
        # fall through with power = max(min(gap, …), 0.0) = +0.0, making
        # every update below a bitwise no-op there.
        np.minimum(gap, maxc, out=power)
        np.subtract(cap, energy, out=limit)
        np.divide(limit, eta_c, out=limit)
        np.minimum(power, limit, out=power)
        np.maximum(power, 0.0, out=power)
        np.multiply(power, eta_c, out=scratch)
        np.add(energy, scratch, out=energy)
        np.add(charged, power, out=charged)
        np.subtract(gap, power, out=surplus_t[hour])
        # Discharge on deficit: mirror image (surplus lanes clip to +0.0).
        req = req_t[hour]
        np.minimum(req, maxd, out=power)
        np.subtract(energy, floor, out=limit)
        np.multiply(limit, eta_d, out=limit)
        np.minimum(power, limit, out=power)
        np.maximum(power, 0.0, out=power)
        np.divide(power, eta_d, out=scratch)
        np.subtract(energy, scratch, out=energy)
        np.add(discharged, power, out=discharged)
        np.subtract(req, power, out=grid_t[hour])
        if charge_t is not None:
            charge_t[hour] = energy

    # The serial loop only *writes* surplus on strict-surplus hours and
    # grid import on strict-deficit hours; everything else stays +0.0.
    # Masking on the hour-major planes (before transposing) spares a third
    # full-plane transpose of the gap.
    np.copyto(surplus_t, 0.0, where=~(gap_t > 0.0))
    np.copyto(grid_t, 0.0, where=~(gap_t < 0.0))
    # req_t and gap_t are dead past this point; their pages host the
    # row-major outputs.
    grid_block = req_t.reshape(n_rows, n_hours)
    _transpose_into(grid_block, grid_t)
    surplus_block = gap_t.reshape(n_rows, n_hours)
    _transpose_into(surplus_block, surplus_t)
    return BatteryRunBatch(
        grid_block,
        surplus_block,
        charge_t,
        charged,
        discharged,
    )


def schedule_run_batch(
    demand: np.ndarray,
    supply: np.ndarray,
    intensity: np.ndarray,
    capacity_mw,
    ratio_profile: np.ndarray,
) -> ScheduleRunBatch:
    """:func:`~repro.kernels.greedy.schedule_run` over a design block.

    ``demand``/``intensity``/``ratio_profile`` are shared across rows
    (the sweep varies investment and capacity, not the site), ``supply``
    is ``(D, H)``, ``capacity_mw`` a ``(D,)`` column.

    The serial kernel walks each candidate day's (source hour, destination
    hour) pairs in a fixed greedy order that depends only on the shared
    intensity trace — so all ``D`` rows visit the *same* ``(src, dst)``
    sequence and the day loop runs in lockstep: one ``(D, n_days)``
    vector step per pair.  Rows that the serial loop would have abandoned
    (``break`` on a drained deficit or movable budget) keep a dead lane
    mask instead — a lane can only die within a source hour, never
    resurrect, so masking is equivalent to breaking — and masked lanes
    move an exact ``+0.0``, which updates state bitwise-identically to
    not touching it.
    """
    n_rows, n_hours = supply.shape
    cmw = _rows(capacity_mw, n_rows)
    shifted = np.tile(demand, (n_rows, 1))
    moved = np.zeros(n_rows)
    if float(ratio_profile.max()) <= 0.0:
        return ScheduleRunBatch(shifted, moved)

    n_days = n_hours // _HOURS_PER_DAY
    demand_days = demand.reshape(n_days, _HOURS_PER_DAY)
    supply_block = np.ascontiguousarray(supply)
    intensity_days = intensity.reshape(n_days, _HOURS_PER_DAY)
    movable_days = demand_days * ratio_profile

    # Union of the serial kernel's per-row candidate days.  A day outside
    # a row's own candidate set never produces a live lane (no deficit
    # above the epsilon, or nothing movable), so lockstepping the union is
    # value-identical; days outside the *union* are untouched by every row.
    movable_any = (movable_days > _MIN_MOVE_MW).any(axis=1)
    deficit_any = (
        (demand_days[None, :, :] - supply_block.reshape(n_rows, n_days, _HOURS_PER_DAY))
        > _MIN_MOVE_MW
    ).any(axis=2).any(axis=0)
    days = np.flatnonzero(movable_any & deficit_any)
    if days.size == 0:
        return ScheduleRunBatch(shifted, moved)

    source_orders = np.argsort(-intensity_days[days], axis=1, kind="stable")
    dest_orders = np.argsort(intensity_days[days], axis=1, kind="stable")
    src_intensity = np.take_along_axis(intensity_days[days], source_orders, axis=1)
    dst_intensity = np.take_along_axis(intensity_days[days], dest_orders, axis=1)
    # Flat hour offsets of each rank column: day * 24 + hour-of-day.
    day_base = days * _HOURS_PER_DAY
    src_offsets = day_base[None, :] + source_orders.T  # (24, n_sel)
    dst_offsets = day_base[None, :] + dest_orders.T

    moved_day = np.zeros((n_rows, days.size))
    movable = np.tile(movable_days[days].T.reshape(-1), (n_rows, 1)).reshape(
        n_rows, _HOURS_PER_DAY, days.size
    )
    # movable indexed [row, hour-of-day, selected day]; source rank i's
    # column is movable[:, source_orders[:, i], day] — regather per rank.

    amount = np.empty((n_rows, days.size))
    live = np.empty((n_rows, days.size), dtype=bool)
    flag = np.empty((n_rows, days.size), dtype=bool)
    room = np.empty((n_rows, days.size))
    cmw_col = np.ascontiguousarray(cmw)[:, None]
    # Supply never mutates; gather each destination rank's columns once
    # instead of once per (source, destination) pair.
    dst_supply = [supply_block[:, dst_offsets[j]] for j in range(_HOURS_PER_DAY)]

    for i in range(_HOURS_PER_DAY):
        src_off = src_offsets[i]
        src_supply = supply_block[:, src_off]
        src_demand = shifted[:, src_off]
        src_hours = source_orders[:, i]
        src_movable = movable[:, src_hours, np.arange(days.size)]
        intensity_i = src_intensity[:, i]
        for j in range(_HOURS_PER_DAY):
            allowed = dst_intensity[:, j] < intensity_i
            if not allowed.any():
                break  # destinations are sorted: every further one is dirtier
            dst_off = dst_offsets[j]
            np.subtract(src_demand, src_supply, out=amount)  # deficit
            np.greater(amount, _MIN_MOVE_MW, out=live)
            np.greater(src_movable, _MIN_MOVE_MW, out=flag)
            live &= flag
            live &= allowed[None, :]
            live &= (dest_orders[:, j] != src_hours)[None, :]
            if not live.any():
                continue
            dst_demand = shifted[:, dst_off]
            np.minimum(amount, src_movable, out=amount)
            np.subtract(dst_supply[j], dst_demand, out=room)
            np.minimum(amount, room, out=amount)
            np.subtract(cmw_col, dst_demand, out=room)
            np.minimum(amount, room, out=amount)
            np.greater(amount, _MIN_MOVE_MW, out=flag)
            live &= flag
            np.multiply(amount, live, out=amount)
            np.add(amount, 0.0, out=amount)  # -0.0 -> +0.0 in dead lanes
            np.subtract(src_demand, amount, out=src_demand)
            np.add(dst_demand, amount, out=dst_demand)
            shifted[:, dst_off] = dst_demand
            np.subtract(src_movable, amount, out=src_movable)
            np.add(moved_day, amount, out=moved_day)
        shifted[:, src_off] = src_demand
        movable[:, src_hours, np.arange(days.size)] = src_movable

    # Serial order: moved_day folds into the total day by day (ascending),
    # skipping zero days — adding their exact +0.0 is a bitwise no-op.
    for column in range(days.size):
        np.add(moved, moved_day[:, column], out=moved)
    return ScheduleRunBatch(shifted, moved)


def combined_run_batch(
    demand: np.ndarray,
    supply: np.ndarray,
    *,
    capacity_mwh,
    floor_mwh,
    max_charge_mw,
    max_discharge_mw,
    charge_efficiency: float,
    discharge_efficiency: float,
    initial_energy_mwh,
    capacity_mw,
    flexible_ratio,
    deadline_hours: int,
    row_sites=None,
    planes: bool = True,
) -> CombinedRunBatch:
    """One year of the combined heuristic for a ``(D, H)`` block of designs.

    Bitwise identical to mapping :func:`~repro.kernels.combined.combined_run`
    over the rows (including its ``flexible_ratio == 0`` delegations to the
    battery / renewables-only kernels).  ``demand`` is the shared ``(H,)``
    trace, or ``(S, H)`` site traces with ``row_sites`` the ``(D,)`` index
    of each row's site — which lets one call span several sites; a
    ``(D, H)`` block without ``row_sites`` gives each row its own trace.
    ``planes=False`` skips the ``shifted_demand``/``charge_level``
    diagnostic planes.

    The serial kernel's FIFO deque splits into two structures that
    vectorize across rows:

    * a **deadline ring** ``(deadline_hours + 1, D)`` for not-yet-due work —
      each hour defers into slot ``(hour + deadline) % ring``, and each
      hour drains slot ``hour % ring`` ("due now") before reusing it;
    * an **overdue matrix** — a circular ``(D, L)`` buffer with per-row
      ``head``/``count`` cursors that holds work past its deadline.  A
      due-now entry the capacity budget cannot finish spills its residual
      to the matrix tail, so matrix order is deadline order — exactly the
      serial queue's FIFO order.  Row-major layout keeps each design's
      entries contiguous: chronically backlogged rows can grow the queue
      into the thousands, and the hourly head-take/tail-spill traffic
      then stays on each row's warm cache lines instead of striding
      across the whole matrix.

    Step 1 (deadlines first) walks the matrix one head entry per round for
    all rows in lockstep, using the serial expressions (``min(amount,
    budget - executed)``; pop at ``take >= amount - eps``) — exact, with no
    magnitude caveat.  Every matrix take is late (its deadline has passed);
    the due-now take never is, so no deadline values are stored at all.

    Step 2 (surplus soak) only ever reaches the *ring* — if overdue work
    survived step 1, the capacity budget is exhausted and the soak gate
    fails.  That argument is exact up to re-rounding (``cmw - load``
    versus ``headroom - executed`` differ in the last ulp), so rows where
    the soak gate passes while overdue work remains fall back to a scalar
    replay of the serial walk; this triggers at most a-few-entries per
    occurrence and is vanishingly rare.  The ring soak itself walks the
    live slots in increasing-deadline order — the serial queue's FIFO
    order, since a deferral at hour ``h`` uniquely targets deadline ``h +
    deadline_hours`` — one slot per round for all rows in lockstep, with
    the same exact serial expressions as step 1.

    Masked-lane transparency throughout follows the module contract:
    multiply-by-bool produces ``+/-0.0`` in dead lanes, and every fold
    target is non-negative, so the unconditional updates are bitwise
    no-ops there.

    Memory is the caller's ``(D, H)`` supply block, the two ``(D, H)``
    outputs (``grid_import``, ``surplus``), the two optional diagnostic
    planes, and ``(D,)``-scale state (the ring and the matrix): no
    hour-major planes and no input copies — about 36 MB per plane at
    ``D = 512`` for a leap year.  Each hour reads its supply
    column and writes its output columns in place; the ``D`` cache lines
    a column touches serve the next seven hours too, so the strided
    access stays cache-resident and needs no transpose pass.
    """
    n_rows, n_hours = supply.shape
    dl = int(deadline_hours)
    if dl < 1:
        raise ValueError("deadline_hours must be >= 1")

    cap = _rows(capacity_mwh, n_rows)
    hasb = cap > 0.0
    floor = np.where(hasb, _rows(floor_mwh, n_rows), 0.0)
    maxc = np.where(hasb, _rows(max_charge_mw, n_rows), 0.0)
    maxd = np.where(hasb, _rows(max_discharge_mw, n_rows), 0.0)
    eta_c = _rows(charge_efficiency, n_rows)
    eta_d = _rows(discharge_efficiency, n_rows)
    cmw = _rows(capacity_mw, n_rows)
    fr = _rows(flexible_ratio, n_rows)
    fr_zero = fr == 0.0  # repro-lint: disable=RL005 — exact degenerate-case guard
    init = _rows(initial_energy_mwh, n_rows)
    any_battery = bool(hasb.any())

    # The hour's demand operand: a python float for a shared trace, or a
    # (D,) row gathered from the site traces, which every ufunc below
    # applies identically per lane.
    if demand.ndim == 2:
        if row_sites is None:
            row_sites = np.arange(n_rows)
        demand_hours = None
        demand_h = np.empty(n_rows)
    else:
        demand_hours = demand.tolist()
    grid = np.zeros((n_rows, n_hours))
    surplus = np.zeros((n_rows, n_hours))
    # Diagnostic planes; sweeps never read them, so they skip both.
    shifted = np.empty((n_rows, n_hours)) if planes else None
    charge = np.empty((n_rows, n_hours)) if planes else None

    # Rows delegating to renewables_only_run report an all-zero charge level.
    energy = np.where(fr_zero & ~hasb, 0.0, init)
    charged = np.zeros(n_rows)
    discharged = np.zeros(n_rows)
    queued_total = np.zeros(n_rows)
    deferred_total = np.zeros(n_rows)
    late = np.zeros(n_rows)
    events = np.zeros(n_rows, dtype=np.int64)

    # Deadline ring + defer-time occupancy counts: occ[slot] is the number
    # of rows that deferred into the slot (set absolutely at defer, zeroed
    # at drain; soak pops do NOT decrement, so the counts are sloppy-high
    # in between).  That is enough to skip never-filled slots and idle
    # hours with scalar tests, and it keeps the soak walk free of any
    # bookkeeping reductions — emptied lanes hold +0.0, which is
    # bitwise-transparent through the serial take/pop expressions.
    # ring_order[due] lists the not-yet-due slots in increasing-deadline
    # order for the hour whose due slot is ``due``.
    ring_n = dl + 1
    ring_amt = np.zeros((ring_n, n_rows))
    occ = np.zeros(ring_n, dtype=np.int64)
    ring_order = (np.arange(ring_n)[:, None] + np.arange(1, dl)) % ring_n
    ring_rows = 0

    # Overdue matrix: circular (D, L), per-row head/count cursors.
    L = 64
    Lm1 = L - 1
    Q = np.zeros((n_rows, L))
    Qflat = Q.ravel()
    head = np.zeros(n_rows, dtype=np.int64)
    ocount = np.zeros(n_rows, dtype=np.int64)
    rows_idx = np.arange(n_rows, dtype=np.int64)
    rowbase = rows_idx * L
    overdue_any = False

    # (D,) scratch
    load = np.empty(n_rows)
    headroom = np.empty(n_rows)
    gap = np.empty(n_rows)
    ex = np.empty(n_rows)
    rem = np.empty(n_rows)
    take = np.empty(n_rows)
    a0 = np.empty(n_rows)
    resid = np.empty(n_rows)
    power = np.empty(n_rows)
    limit = np.empty(n_rows)
    scratch = np.empty(n_rows)
    deficit = np.empty(n_rows)
    deferred = np.empty(n_rows)
    budget = np.empty(n_rows)
    g1 = np.empty(n_rows, dtype=bool)
    act = np.empty(n_rows, dtype=bool)
    pop = np.empty(n_rows, dtype=bool)
    spill = np.empty(n_rows, dtype=bool)
    sup = np.empty(n_rows, dtype=bool)
    defer_mask = np.empty(n_rows, dtype=bool)
    soak_mask = np.empty(n_rows, dtype=bool)
    flag = np.empty(n_rows, dtype=bool)
    i64a = np.empty(n_rows, dtype=np.int64)
    for hour in range(n_hours):
        if demand_hours is None:
            np.take(demand[:, hour], row_sites, out=demand_h)
            np.copyto(load, demand_h)
        else:
            demand_h = demand_hours[hour]
            load.fill(demand_h)
        slot_due = hour % ring_n
        due_flag = occ[slot_due] > 0
        any_spill_now = False

        # ---- 1. Deadlines first: run_queued(headroom, hour, True).
        # Matrix head entries (all strictly overdue -> late), then the
        # due-now ring entry (never late), under one budget fold.
        if due_flag or overdue_any:
            np.subtract(cmw, demand_h, out=headroom)
            np.greater(headroom, _EPSILON_MWH, out=g1)
            np.greater(queued_total, _EPSILON_MWH, out=flag)
            g1 &= flag
            # Fold the hour gate into the budget itself: gated-off lanes
            # get a +/-0.0 budget, so their ``rem > eps`` test can never
            # pass and the per-round ``&= g1`` ops disappear.
            np.multiply(headroom, g1, out=headroom)
            ex.fill(0.0)
            if overdue_any:
                # Only rows with overdue entries AND a live (post-gate)
                # budget can take anything; every other row's lanes are
                # bitwise no-ops all the way down (a +/-0.0 take changes
                # nothing it folds into), so the walk runs compressed to
                # the candidates — typically a sixth of a merged block.
                np.greater(ocount, 0, out=flag)
                np.greater(headroom, _EPSILON_MWH, out=act)
                flag &= act
                cand = np.flatnonzero(flag)
                if cand.size:
                    nc = cand.size
                    hr_c = np.take(headroom, cand)
                    hd_c = head[cand]
                    oc_c = ocount[cand]
                    qt_c = np.take(queued_total, cand)
                    lt_c = np.take(late, cand)
                    base_c = cand * L
                    ex_c = np.zeros(nc)
                    rem_c, take_c, resid_c, a0_c = (
                        rem[:nc], take[:nc], resid[:nc], a0[:nc])
                    act_c, pop_c, oflag_c = act[:nc], pop[:nc], flag[:nc]
                    i_c = i64a[:nc]
                    while True:
                        np.subtract(hr_c, ex_c, out=rem_c)
                        np.greater(rem_c, _EPSILON_MWH, out=act_c)
                        np.greater(oc_c, 0, out=oflag_c)
                        act_c &= oflag_c
                        if not act_c.any():
                            break
                        np.bitwise_and(hd_c, Lm1, out=i_c)
                        np.add(i_c, base_c, out=i_c)
                        Qflat.take(i_c, None, a0_c)
                        np.minimum(a0_c, rem_c, out=take_c)
                        np.multiply(take_c, act_c, out=take_c)
                        np.add(ex_c, take_c, out=ex_c)
                        np.subtract(qt_c, take_c, out=qt_c)
                        np.add(lt_c, take_c, out=lt_c)
                        np.subtract(a0_c, _EPSILON_MWH, out=resid_c)
                        np.greater_equal(take_c, resid_c, out=pop_c)
                        pop_c &= act_c
                        np.subtract(a0_c, take_c, out=resid_c)
                        # Inactive lanes computed resid == a0 bitwise
                        # (take is +/-0.0 there and the matrix never
                        # stores -0.0), so only the draining lanes need
                        # their entry scattered back.
                        Qflat[i_c[act_c]] = resid_c[act_c]
                        np.add(hd_c, pop_c, out=hd_c)
                        np.subtract(oc_c, pop_c, out=oc_c)
                    head[cand] = hd_c
                    ocount[cand] = oc_c
                    queued_total[cand] = qt_c
                    late[cand] = lt_c
                    ex[cand] = ex_c
                overdue_any = bool(ocount.any())
            if due_flag:
                due_amt = ring_amt[slot_due]
                np.subtract(headroom, ex, out=rem)
                # No ``due_amt > 0`` gate: empty lanes take +0.0, their
                # spurious pop never spills (spill re-checks ``> 0``), and
                # the slot is zeroed below regardless.
                np.greater(rem, _EPSILON_MWH, out=act)
                np.minimum(due_amt, rem, out=take)
                np.multiply(take, act, out=take)
                np.add(ex, take, out=ex)
                np.subtract(queued_total, take, out=queued_total)
                np.subtract(due_amt, _EPSILON_MWH, out=resid)
                np.greater_equal(take, resid, out=pop)
                pop &= act
                np.greater(due_amt, 0.0, out=spill)
                np.logical_not(pop, out=flag)
                spill &= flag
                if spill.any():
                    # Unfinished due work migrates to the matrix tail: its
                    # slot is about to be reused, and its deadline (== hour)
                    # sorts after every matrix entry, preserving FIFO order.
                    any_spill_now = True
                    np.subtract(due_amt, take, out=resid)
                    np.add(head, ocount, out=i64a)
                    np.bitwise_and(i64a, Lm1, out=i64a)
                    np.add(i64a, rowbase, out=i64a)
                    # Non-spilling rows would write a dead tail position
                    # (beyond their count, never read) — skip them.
                    Qflat[i64a[spill]] = resid[spill]
                    np.add(ocount, spill, out=ocount)
                    overdue_any = True
                    if int(ocount.max()) >= L:
                        ks = np.arange(L, dtype=np.int64)[None, :]
                        old = np.bitwise_and(head[:, None] + ks, Lm1)
                        old += rowbase[:, None]
                        L *= 2
                        Lm1 = L - 1
                        grown = np.zeros((n_rows, L))
                        grown[:, : L // 2] = Qflat[old]
                        Q = grown
                        Qflat = Q.ravel()
                        rowbase = rows_idx * L
                        head.fill(0)
                due_amt.fill(0.0)
                ring_rows -= int(occ[slot_due])
                occ[slot_due] = 0
            np.add(load, ex, out=load)

        # ---- Serial branch decision, with this hour's true load.
        np.subtract(supply[:, hour], load, out=gap)
        np.greater(gap, 0.0, out=sup)
        any_sup = bool(sup.any())
        all_sup = any_sup and bool(sup.all())

        # ---- 2. Surplus soak: run_queued(min(gap, headroom), hour, False).
        if any_sup and (ring_rows or overdue_any):
            np.subtract(cmw, load, out=headroom)
            np.minimum(gap, headroom, out=budget)
            np.greater(budget, _EPSILON_MWH, out=soak_mask)
            np.greater(queued_total, _EPSILON_MWH, out=flag)
            soak_mask &= flag
            if overdue_any:
                np.greater(ocount, 0, out=act)
                act &= soak_mask
                if act.any():
                    _soak_replay_rows(
                        np.flatnonzero(act), soak_mask, budget, queued_total,
                        late, load, gap, Qflat, head, ocount, Lm1, L,
                        ring_amt, ring_n, hour, dl,
                        spill if any_spill_now else None,
                    )
                    overdue_any = bool(ocount.any())
            if ring_rows and bool(soak_mask.any()):
                # Ring entries in increasing-deadline order = the serial
                # queue's FIFO order, with the serial loop's exact
                # expressions (``take = min(amount, budget - executed)``,
                # pop at ``take >= amount - eps``).  Each slot holds at
                # most one entry per row (a deferral at hour h uniquely
                # targets deadline h + dl), so a slot IS a queue entry.
                # The walk runs *compressed* to the soak-gated rows: every
                # other row would flow through the take/pop expressions as
                # a bitwise no-op (a +/-0.0 budget can never pass the
                # ``rem > eps`` gate), and soak rows are sparse — a few
                # percent of a merged block on a typical hour — so the
                # sheet ops shrink from D lanes to the handful that can
                # actually take work.
                sidx = np.flatnonzero(soak_mask)
                order = ring_order[slot_due]
                slots = order[occ[order] > 0]
                if slots.size:
                    bud_c = np.take(budget, sidx)
                    qt0 = np.take(queued_total, sidx)
                    cell = np.ix_(slots, sidx)
                    entries = ring_amt[cell]
                    # The serial walk takes entries whole until the budget
                    # runs dry, so its running ``executed`` along that
                    # prefix IS the left-fold prefix sum of the amounts —
                    # one cumsum replaces the per-slot round loop, and the
                    # per-entry ``rem > eps`` gate / ``min(amount, rem)``
                    # take / ``take >= amount - eps`` pop evaluate on the
                    # whole (slot x row) sheet at once.  Past a partial
                    # take the sheet's rem goes negative and gates every
                    # later slot off, exactly like the serial loop whose
                    # rem sticks at ~0; the one (vanishing) divergence is
                    # a partial whose serial residual still clears the
                    # epsilon gate, replayed exactly below.
                    prefix = np.cumsum(entries, axis=0)
                    rem2 = np.empty_like(entries)
                    rem2[0] = bud_c
                    np.subtract(bud_c, prefix[:-1], out=rem2[1:])
                    gate2 = rem2 > _EPSILON_MWH
                    take2 = np.minimum(entries, rem2)
                    np.multiply(take2, gate2, out=take2)
                    resid2 = np.subtract(entries, _EPSILON_MWH)
                    pop2 = np.greater_equal(take2, resid2)
                    pop2 &= gate2
                    left2 = np.subtract(entries, take2)
                    np.logical_not(pop2, out=pop2)
                    np.multiply(left2, pop2, out=left2)
                    # ``executed`` and the queue meter are serial
                    # per-take left folds (a lump-sum add would round
                    # differently): accumulate along a sheet whose seed
                    # row is 0.0, then the queue meter, above the takes.
                    folds = np.empty((slots.size + 1, sidx.size))
                    folds[0] = 0.0
                    folds[1:] = take2
                    ex_c = np.add.accumulate(folds, axis=0)[-1]
                    folds[0] = qt0
                    qt_c = np.subtract.accumulate(folds, axis=0)[-1]
                    partial2 = np.less(take2, entries)
                    partial2 &= gate2
                    rem_c = rem[:sidx.size]
                    np.subtract(bud_c, ex_c, out=rem_c)
                    hazard = np.greater(rem_c, _EPSILON_MWH)
                    hazard &= partial2.any(axis=0)
                    if hazard.any():
                        for j in np.flatnonzero(hazard):
                            ex_c[j], qt_c[j] = _soak_exact_column(
                                entries[:, j], left2[:, j],
                                float(bud_c[j]), float(qt0[j]),
                            )
                    ring_amt[cell] = left2
                    queued_total[sidx] = qt_c
                    # No takes leave ex at +0.0 and every update below a
                    # bitwise no-op (load and the soak lanes' gap carry no
                    # -0.0), so the tail runs unconditionally.
                    load[sidx] += ex_c
                    g_c = np.take(gap, sidx)
                    np.subtract(g_c, ex_c, out=g_c)
                    neg_c = pop[:sidx.size]
                    np.less(g_c, 0.0, out=neg_c)
                    np.copyto(g_c, 0.0, where=neg_c)
                    gap[sidx] = g_c

        # ---- 3. Surplus: battery charge chain (maskless; dead lanes
        # resolve to +0.0 power through the serial clamp order).
        if any_sup:
            np.minimum(gap, maxc, out=power)
            np.subtract(cap, energy, out=limit)
            np.divide(limit, eta_c, out=limit)
            np.minimum(power, limit, out=power)
            np.maximum(power, 0.0, out=power)
            np.multiply(power, eta_c, out=scratch)
            np.add(energy, scratch, out=energy)
            np.add(charged, power, out=charged)
            np.subtract(gap, power, out=scratch)
            np.maximum(scratch, 0.0, out=surplus[:, hour])

        # ---- 4. Deficit: battery, then deferral, then the grid.
        if not all_sup:
            np.negative(gap, out=deficit)
            if any_battery:
                np.minimum(deficit, maxd, out=power)
                np.subtract(energy, floor, out=limit)
                np.multiply(limit, eta_d, out=limit)
                np.minimum(power, limit, out=power)
                np.maximum(power, 0.0, out=power)
                np.divide(power, eta_d, out=scratch)
                np.subtract(energy, scratch, out=energy)
                np.add(discharged, power, out=discharged)
                np.subtract(deficit, power, out=deficit)
            np.multiply(fr, demand_h, out=deferred)
            np.minimum(deficit, deferred, out=deferred)
            np.greater(deferred, _EPSILON_MWH, out=defer_mask)
            if defer_mask.any():
                np.multiply(deferred, defer_mask, out=scratch)
                np.add(scratch, 0.0, out=scratch)
                np.subtract(load, scratch, out=load)
                np.subtract(deficit, scratch, out=deficit)
                np.add(queued_total, scratch, out=queued_total)
                np.add(deferred_total, scratch, out=deferred_total)
                np.add(events, defer_mask, out=events)
                # This slot was the due slot last hour, so it is empty now
                # (drained and zeroed); the copyto installs this hour's
                # deferrals as its only entries.
                slot = (hour + dl) % ring_n
                np.copyto(ring_amt[slot], scratch)
                ndefer = int(np.count_nonzero(defer_mask))
                occ[slot] = ndefer
                ring_rows += ndefer
            np.logical_not(sup, out=flag)
            np.copyto(grid[:, hour], deficit, where=flag)

        if planes:
            shifted[:, hour] = load
            charge[:, hour] = energy

    if fr_zero.any():
        # The serial kernel's flexible_ratio == 0 delegations write their
        # grid column with np.maximum (never -0.0); the combined loop's
        # python max keeps -0.0.  Normalize those rows to the delegate.
        rows_z = np.flatnonzero(fr_zero)
        grid[rows_z] = np.add(grid[rows_z], 0.0)
    return CombinedRunBatch(
        grid, surplus, deferred_total, late, queued_total, charged,
        discharged, events, shifted, charge,
    )


def _soak_replay_rows(
    rows, soak_mask, budget, queued_total, late, load, gap,
    Qflat, head, ocount, Lm1, L, ring_amt, ring_n, hour, dl, spill,
):
    """Serial soak replay for rows whose budget survived step 1's drain.

    Overdue work outlives step 1 only when the hour's capacity budget is
    exhausted, and then the soak budget fails its epsilon gate — except
    when ``cmw - load`` re-rounds an ulp above ``headroom - executed``.
    For those (vanishingly rare) rows, replay the serial run_queued walk
    exactly: matrix entries head-first, then live ring slots in deadline
    order.  Every matrix take is late unless it is the entry spilled this
    very hour (``spill`` is step 1's spill mask, or None if none spilled),
    which still carries deadline == hour.
    """
    for row in rows.tolist():
        soak_mask[row] = False
        budget_row = float(budget[row])
        total_row = float(queued_total[row])
        late_row = float(late[row])
        exec_row = 0.0
        hd = int(head[row])
        oc = int(ocount[row])
        while oc and budget_row - exec_row > _EPSILON_MWH:
            slot = row * L + (hd & Lm1)
            amount = float(Qflat[slot])
            remaining = budget_row - exec_row
            take = amount if amount <= remaining else remaining
            exec_row += take
            total_row -= take
            if not (oc == 1 and spill is not None and spill[row]):
                late_row += take
            if take >= amount - _EPSILON_MWH:
                hd += 1
                oc -= 1
            else:
                Qflat[slot] = amount - take
        head[row] = hd
        ocount[row] = oc
        if oc == 0:
            for ahead in range(1, dl):
                if budget_row - exec_row <= _EPSILON_MWH:
                    break
                slot = (hour + ahead) % ring_n
                amount = float(ring_amt[slot, row])
                if amount > 0.0:
                    remaining = budget_row - exec_row
                    take = amount if amount <= remaining else remaining
                    exec_row += take
                    total_row -= take
                    if take >= amount - _EPSILON_MWH:
                        ring_amt[slot, row] = 0.0
                    else:
                        ring_amt[slot, row] = amount - take
        queued_total[row] = total_row
        late[row] = late_row
        load_row = float(load[row]) + exec_row
        load[row] = load_row
        gap_row = float(gap[row]) - exec_row
        gap[row] = gap_row if gap_row >= 0.0 else 0.0


def _soak_exact_column(entries_col, left_col, budget, queued):
    """Serial replay of one row's ring walk (the post-partial hazard).

    The cumsum sheet gates every slot after a partial take off a negative
    rem, while the serial loop's rem is ``budget - executed`` — which can,
    at epsilon scale, re-round just above the gate and take more.  Replay
    the row with the serial kernel's exact scalar arithmetic, overwriting
    the sheet's leftover column, and return the serial fold results.
    """
    executed = 0.0
    for k in range(entries_col.size):
        amount = float(entries_col[k])
        if amount == 0.0:  # repro-lint: disable=RL005 — exact degenerate-case guard; kernels import nothing
            continue
        remaining = budget - executed
        if remaining <= _EPSILON_MWH:
            left_col[k] = amount
            continue
        take = amount if amount <= remaining else remaining
        executed += take
        queued -= take
        if take >= amount - _EPSILON_MWH:
            left_col[k] = 0.0
        else:
            left_col[k] = amount - take
    return executed, queued
