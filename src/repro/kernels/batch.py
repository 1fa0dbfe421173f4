"""Batched (design × hour) kernels for whole-grid sweeps.

The serial kernels (:mod:`.battery`, :mod:`.greedy`, :mod:`.combined`)
spend one Python year-loop per design; an exhaustive sweep multiplies that
loop by the grid size.  The kernels here run the *same* hour loop once for
a whole block of designs: ``supply`` becomes a ``(D, H)`` block — one row
per design's solar/wind mix, broadcast from the memoized per-axis
projections (the lockstep kernel also takes a ``(U, H)`` block of distinct
mixes plus a row→mix index) — and every per-design scalar (battery
capacity, DoD floor, datacenter capacity, flexible ratio) becomes a
``(D,)`` column, so each hour's state update is a handful of vectorized
row-wise operations instead of ``D`` interpreter iterations.

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

Dispatch budget
---------------

At a few hundred lanes a numpy call costs about as much as its dispatch,
so the lockstep hour loops are bound by how many calls each hour makes
and by the form of each call, not by arithmetic.  The hot loops therefore
use the cheap forms: ``np.count_nonzero`` for ``any``/``all`` tests,
``.nonzero()[0]`` for index lists, plain integer indexing for gathers,
flat positions with ``.take``/``.put`` for (slot x row) cells,
``np.add.accumulate`` for prefix sums (the ufunc ``np.cumsum`` wraps, so
the bits match), and 0-d arrays rather than python floats as scalar
operands.  DESIGN.md ("Dispatch budget") lists the measured costs.

Degenerate rows (zero battery capacity, zero flexible ratio) stay in the
block: their lanes reproduce the serial kernels' vectorized short-circuits
bitwise (``-(a - b)`` equals ``b - a`` bitwise, and the masked lanes never
observe a stray ``-0.0`` thanks to the normalizations above), so callers
never need to split a block by configuration.  The same holds one level
up: a battery block is a combined block whose every row has a zero
flexible ratio, so :func:`battery_run_batch` has no hour loop of its own.

Kernel purity: inputs are read-only (gathers copy; every mutated array is
freshly allocated here), there is no I/O, and the only imports are numpy,
stdlib containers and ``mmap`` (for an anonymous, file-less mapping) —
the same contract RL003 enforces for the serial kernels.
"""

from __future__ import annotations

import mmap
from typing import NamedTuple

import numpy as np

#: Mirrors ``combined_run``'s queue epsilon (MWh).
_EPSILON_MWH = 1e-9

#: Mirrors ``schedule_run``'s move epsilon (MW).
_MIN_MOVE_MW = 1e-9

_HOURS_PER_DAY = 24

class ScheduleRunBatch(NamedTuple):
    """Row-stacked :func:`~repro.kernels.greedy.schedule_run` outcome."""

    shifted: np.ndarray
    moved_mwh: np.ndarray


class CombinedRunBatch:
    """Row-stacked :class:`~repro.kernels.combined.CombinedRunArrays`.

    Meter totals are ``(D,)``.  The two hourly outcomes share storage:
    each hour a row either runs short (``gap <= 0``) and imports from the
    grid, or it does not and keeps a surplus, and the outcome it does not
    have is an exact ``+0.0``.  So the kernel records one ``(D, H)``
    ``value`` plane (the grid import where the row ran short, else the
    surplus) plus the hour-major ``(H, D)`` bool ``short`` mask: 9 bytes
    per design-hour instead of two 8-byte planes.  :meth:`row_outcome`
    rebuilds one row's ``(grid_import, surplus)``, which is what the sweep
    finishers read; the ``grid_import``/``surplus`` properties rebuild the
    full ``(D, H)`` planes on every read, for tests and diagnostics.

    The ``shifted_demand`` and ``charge_level`` diagnostic planes exist only
    when the kernel ran with ``planes=True``: the sweep path reads the
    outcomes and the meter columns alone, so it skips recording them, and
    reading a skipped plane raises ``AttributeError`` naming the keyword.
    """

    __slots__ = (
        "value", "short", "deferred_mwh", "late_mwh",
        "unserved_mwh", "charged_mwh", "discharged_mwh", "deferral_events",
        "shifted_demand", "charge_level",
    )

    def __init__(self, value, short, deferred_mwh, late_mwh,
                 unserved_mwh, charged_mwh, discharged_mwh, deferral_events,
                 shifted_demand=None, charge_level=None):
        self.value = value
        self.short = short
        self.deferred_mwh = deferred_mwh
        self.late_mwh = late_mwh
        self.unserved_mwh = unserved_mwh
        self.charged_mwh = charged_mwh
        self.discharged_mwh = discharged_mwh
        self.deferral_events = deferral_events
        if shifted_demand is not None:
            self.shifted_demand = shifted_demand
            self.charge_level = charge_level

    def row_outcome(self, i: int):
        """Row ``i``'s ``(grid_import, surplus)`` hours as fresh arrays."""
        short = np.ascontiguousarray(self.short[:, i])
        value = self.value[i]
        return np.where(short, value, 0.0), np.where(short, 0.0, value)

    @property
    def grid_import(self) -> np.ndarray:
        """The ``(D, H)`` grid-import plane, rebuilt on each read."""
        return np.where(self.short.T, self.value, 0.0)

    @property
    def surplus(self) -> np.ndarray:
        """The ``(D, H)`` surplus plane, rebuilt on each read."""
        return np.where(self.short.T, 0.0, self.value)

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
    row_sites=None,
    row_supply=None,
    planes: bool = True,
) -> CombinedRunBatch:
    """:func:`~repro.kernels.battery.battery_run` over a design block.

    A design with no flexible work runs the battery policy alone, so this
    is :func:`combined_run_batch` at ``flexible_ratio = 0`` with an
    unbounded datacenter capacity: no row ever defers, the kernel skips
    its deferral steps, and every row is bitwise identical to
    :func:`~repro.kernels.combined.combined_run`'s delegation to
    ``battery_run`` (zero-capacity rows to ``renewables_only_run``).
    ``demand``, ``supply``, ``row_sites``, ``row_supply`` and ``planes``
    mean what they mean there; the deferral meters of the returned
    :class:`CombinedRunBatch` are zero.  Sweeps reach it only when
    ``REPRO_BATCH_MIN_ROWS`` sets a battery floor; by default battery
    blocks run :func:`~repro.kernels.battery.battery_run_seeded` per row.

    Preconditions (the wrappers validate them): finite non-negative
    demand/supply, efficiencies in ``(0, 1]``, ``floor <= initial <=
    capacity`` per row, and no ``-0.0`` in the inputs.
    """
    return combined_run_batch(
        demand,
        supply,
        capacity_mwh=capacity_mwh,
        floor_mwh=floor_mwh,
        max_charge_mw=max_charge_mw,
        max_discharge_mw=max_discharge_mw,
        charge_efficiency=charge_efficiency,
        discharge_efficiency=discharge_efficiency,
        initial_energy_mwh=initial_energy_mwh,
        capacity_mw=np.inf,
        flexible_ratio=0.0,
        deadline_hours=1,
        row_sites=row_sites,
        row_supply=row_supply,
        planes=planes,
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
    row_supply=None,
    planes: bool = True,
) -> CombinedRunBatch:
    """One year of the combined heuristic for a block of ``D`` designs.

    Bitwise identical to mapping :func:`~repro.kernels.combined.combined_run`
    over the rows (including its ``flexible_ratio == 0`` delegations to the
    battery / renewables-only kernels).  ``demand`` is the shared ``(H,)``
    trace, or ``(S, H)`` site traces with ``row_sites`` the ``(D,)`` index
    of each row's site — which lets one call span several sites; a
    ``(D, H)`` block without ``row_sites`` gives each row its own trace.
    ``supply`` is likewise a ``(D, H)`` block, one row per design, or
    ``(U, H)`` distinct supply rows with ``row_supply`` the ``(D,)`` index
    of each design's row: a sweep grid repeats each investment pair across
    its battery and capacity axes, so a block needs only its distinct
    projections.  Each hour gathers its supply column by indexing with
    ``row_supply``, exactly as ``row_sites`` gathers demand.
    ``planes=False`` skips the ``shifted_demand``/``charge_level``
    diagnostic planes.

    The serial kernel's FIFO deque splits into two structures that
    vectorize across rows:

    * a **deadline ring** ``(deadline_hours + 1, D)`` for not-yet-due work —
      each hour defers into slot ``(hour + deadline) % ring``, and each
      hour drains slot ``hour % ring`` ("due now") before reusing it;
    * a **due buffer** — a linear row-major ``(D, H + 1)`` buffer with
      per-row absolute ``head``/``tail`` cursors that holds work at or
      past its deadline.  Each hour the due-now ring entries join their
      rows' tails, so buffer order is deadline order — exactly the serial
      queue's FIFO order.  A row appends at most once per hour, so its
      cursors never wrap and never leave the row's span: the buffer is
      allocated once and never grows.  Row-major layout keeps each
      design's entries contiguous: chronically backlogged rows can grow
      the queue into the thousands, and the hourly head-take/tail-append
      traffic then stays on each row's warm cache lines instead of
      striding across the whole buffer.

    Step 1 (deadlines first) walks the buffer one head entry per round for
    the rows that hold entries and pass the hour gate, in lockstep, using
    the serial expressions (``min(amount, budget - executed)``; pop at
    ``take >= amount - eps``) — exact, with no magnitude caveat.  A take
    is late unless it comes from the entry the row appended this hour
    (the serial due-now entry, always the row's last), so no deadline
    values are stored at all; what the walk leaves of that entry is the
    serial kernel's spill.

    Step 2 (surplus soak) only ever reaches the *ring* — if overdue work
    survived step 1, the capacity budget is exhausted and the soak gate
    fails.  That argument is exact up to re-rounding (``cmw - load``
    versus ``headroom - executed`` differ in the last ulp), so rows where
    the soak gate passes while overdue work remains fall back to a scalar
    replay of the serial walk (:func:`_soak_replay_rows`); this triggers
    at most a-few-entries per occurrence and is vanishingly rare.  The
    ring soak itself evaluates the not-yet-due slots in increasing-deadline
    order — the serial queue's FIFO order, since a deferral at hour ``h``
    uniquely targets deadline ``h + deadline_hours`` — as one
    (slot x row) sheet: a prefix sum of the amounts stands in for the
    serial running ``executed``, and the rare row where that differs from
    the serial walk is replayed (:func:`_soak_exact_column`).

    Masked-lane transparency throughout follows the module contract:
    multiply-by-bool produces ``+/-0.0`` in dead lanes, and every fold
    target is non-negative, so the unconditional updates are bitwise
    no-ops there.

    Memory is the caller's supply block (``U`` or ``D`` rows), the
    outcomes (one ``(D, H)`` float value plane plus the ``(H, D)`` bool
    ``short`` mask, see :class:`CombinedRunBatch`), the two optional
    diagnostic planes, the due buffer, and ``(D,)``-scale state (the
    ring, the cursors, the scratch columns): no input copies — about 36 MB
    per float plane and 4.5 MB for the mask at ``D = 512`` for a leap
    year.  The mask is the one hour-major plane: each hour writes its
    branch mask straight into its ``(D,)`` row, so it costs no call.
    The due buffer is one zeroed anonymous mapping whose pages become
    resident only where a row's tail reaches, so a block that never
    defers costs nothing for it and a row costs 8 bytes per deferral that
    was still queued at its deadline (the tail never moves back).  As an
    ``np.zeros`` plane it would be resident in 2 MB huge pages, i.e.
    whole as soon as rows across the block append.  It must be zeroed,
    not ``np.empty``: the walk reads the head slot of rows that just
    drained (a slot no append has written yet), and that read must be a
    finite ``+0.0``.  Each hour reads its supply column and writes its
    value column in place; the cache lines a column touches serve the
    next seven hours too, so the strided access stays cache-resident and
    needs no transpose pass.
    """
    n_hours = supply.shape[1]
    if row_supply is None:
        row_supply = np.arange(supply.shape[0])
    else:
        row_supply = np.asarray(row_supply, dtype=np.intp)
    n_rows = row_supply.size
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
    # A zero ratio defers min(deficit, 0 * demand), never above the
    # epsilon, so a block of such rows skips the deferral step outright.
    can_defer = not bool(fr_zero.all())
    init = _rows(initial_energy_mwh, n_rows)
    any_battery = bool(hasb.any())

    # The hour's demand operand: a python float for a shared trace, or a
    # (D,) row gathered from the site traces, which every ufunc below
    # applies identically per lane.
    if demand.ndim == 2:
        if row_sites is None:
            row_sites = np.arange(n_rows)
        else:
            row_sites = np.asarray(row_sites, dtype=np.intp)
        demand_hours = None
    else:
        demand_hours = demand.tolist()
    # Outcomes: one (D, H) value plane (a short row's grid import, every
    # other row's surplus) and the hour-major (H, D) short mask, whose
    # hour row is written in place as the hour's branch mask.
    value = np.zeros((n_rows, n_hours))
    short_plane = np.empty((n_hours, n_rows), dtype=bool)
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

    # Scalar operands as 0-d arrays: a python float operand costs a
    # conversion on every ufunc call, a 0-d double none (same IEEE value).
    eps = np.array(_EPSILON_MWH)
    zero = np.array(0.0)

    # Deadline ring + defer-time occupancy counts: occ[slot] is the number
    # of rows that deferred into the slot (set absolutely at defer, zeroed
    # at drain; soak pops do NOT decrement, so the counts are sloppy-high
    # in between).  That is enough to skip idle hours with scalar tests,
    # and it keeps the soak walk free of any bookkeeping reductions —
    # emptied lanes hold +0.0, which is bitwise-transparent through the
    # serial take/pop expressions.  ring_order[due] lists the not-yet-due
    # slots in increasing-deadline order for the hour whose due slot is
    # ``due``; ring_cells[due] holds their flat (slot, row 0) positions as
    # a column, to which a row index adds.
    ring_n = dl + 1
    ring_amt = np.zeros((ring_n, n_rows))
    occ = [0] * ring_n
    ring_order = (np.arange(ring_n)[:, None] + np.arange(1, dl)) % ring_n
    ring_cells = (ring_order * n_rows)[:, :, None]
    ring_rows = 0

    # Due buffer: linear row-major (D, H + 1), flat, with per-row
    # absolute head/tail cursors (the row's first entry, one past its
    # last).  A row appends at most once per hour, so its tail never
    # passes the end of the row's own span: nothing wraps and nothing
    # grows.  The buffer is an anonymous mapping, zero-filled by the OS,
    # whose untouched pages never become resident.  ``np.zeros`` would
    # advise transparent huge pages for it, and then one append anywhere
    # in a 2 MB region makes the whole region resident.
    width = n_hours + 1
    Qflat = np.frombuffer(
        mmap.mmap(-1, max(n_rows * width, 1) * 8), dtype=np.float64
    )[: n_rows * width]
    head = np.arange(n_rows, dtype=np.int64) * width
    tail = head.copy()
    overdue_any = False

    # (D,) scratch
    load = np.empty(n_rows)
    headroom = np.empty(n_rows)
    gap = np.empty(n_rows)
    rem = np.empty(n_rows)
    take = np.empty(n_rows)
    resid = np.empty(n_rows)
    power = np.empty(n_rows)
    limit = np.empty(n_rows)
    scratch = np.empty(n_rows)
    deficit = np.empty(n_rows)
    deferred = np.empty(n_rows)
    budget = np.empty(n_rows)
    gate = np.empty(n_rows, dtype=bool)
    act = np.empty(n_rows, dtype=bool)
    pop = np.empty(n_rows, dtype=bool)
    is_late = np.empty(n_rows, dtype=bool)
    owes = np.empty(n_rows, dtype=bool)
    fresh = np.zeros(n_rows, dtype=bool)
    defer_mask = np.empty(n_rows, dtype=bool)
    soak_mask = np.empty(n_rows, dtype=bool)
    flag = np.empty(n_rows, dtype=bool)
    for hour in range(n_hours):
        if demand_hours is None:
            demand_h = demand[:, hour][row_sites]
            np.copyto(load, demand_h)
        else:
            demand_h = demand_hours[hour]
            load.fill(demand_h)
        slot_due = hour % ring_n
        due_flag = occ[slot_due] > 0
        appended = False

        # ---- 1. Deadlines first: run_queued(headroom, hour, True).
        # Buffer entries (all strictly overdue -> late), then the due-now
        # ring entry (never late), under one budget fold.
        if due_flag or overdue_any:
            # The serial hour gate; ``gate`` survives until the walk.
            np.subtract(cmw, demand_h, out=headroom)
            np.greater(headroom, eps, out=gate)
            np.greater(queued_total, eps, out=flag)
            gate &= flag
            if due_flag:
                # Each row's due-now entry joins its buffer at the tail:
                # its deadline (== hour) sorts after every overdue entry,
                # so the walk below takes it last, exactly where the
                # serial queue holds it, and what the walk leaves of it is
                # the serial spill.  ``fresh`` marks the rows whose last
                # entry is this hour's: a take from it is not late.
                due_amt = ring_amt[slot_due]
                np.greater(due_amt, zero, out=fresh)
                new = fresh.nonzero()[0]
                if new.size:
                    appended = overdue_any = True
                    Qflat.put(tail[new], due_amt[new])
                    np.add(tail, fresh, out=tail)
                due_amt.fill(0.0)
                ring_rows -= occ[slot_due]
                occ[slot_due] = 0
            if overdue_any:
                # Only rows with entries AND a live (post-gate) budget can
                # take anything; every other row's lanes are bitwise
                # no-ops all the way down (a +/-0.0 take changes nothing
                # it folds into), so the walk runs compressed to the
                # candidates.
                np.less(head, tail, out=owes)
                np.logical_and(gate, owes, out=flag)
                cand = flag.nonzero()[0]
                if cand.size:
                    nc = cand.size
                    hr_c = headroom[cand]
                    hd_c = head[cand]
                    tl_c = tail[cand]
                    qt_c = queued_total[cand]
                    lt_c = late[cand]
                    ex_c = np.zeros(nc)
                    take_c, resid_c = take[:nc], resid[:nc]
                    act_c, pop_c, is_late_c = act[:nc], pop[:nc], is_late[:nc]
                    if appended:
                        # Entries before ``due_c`` are overdue; the one at
                        # it (if the row appended) is this hour's.
                        due_c = tl_c - fresh[cand]
                    # Round one: ``executed`` is 0.0, so ``rem`` is the
                    # headroom, and every candidate passed the gate and
                    # holds an entry: all lanes are live, and the live
                    # test runs at the end of each round.
                    rem_c = hr_c
                    act_c.fill(True)
                    while True:
                        a0_c = Qflat[hd_c]
                        np.minimum(a0_c, rem_c, out=take_c)
                        np.multiply(take_c, act_c, out=take_c)
                        np.add(ex_c, take_c, out=ex_c)
                        np.subtract(qt_c, take_c, out=qt_c)
                        if appended:
                            np.less(hd_c, due_c, out=is_late_c)
                            np.add(lt_c, take_c, out=lt_c, where=is_late_c)
                        else:
                            np.add(lt_c, take_c, out=lt_c)
                        np.subtract(a0_c, eps, out=resid_c)
                        np.greater_equal(take_c, resid_c, out=pop_c)
                        pop_c &= act_c
                        np.subtract(a0_c, take_c, out=resid_c)
                        # Inactive lanes computed resid == a0 bitwise
                        # (take is +/-0.0 there and the buffer never
                        # stores -0.0), so scattering every lane back
                        # rewrites theirs unchanged.
                        Qflat.put(hd_c, resid_c)
                        np.add(hd_c, pop_c, out=hd_c)
                        rem_c = np.subtract(hr_c, ex_c, out=rem[:nc])
                        np.greater(rem_c, eps, out=act_c)
                        np.less(hd_c, tl_c, out=pop_c)
                        act_c &= pop_c
                        if not np.count_nonzero(act_c):
                            break
                    head[cand] = hd_c
                    queued_total[cand] = qt_c
                    late[cand] = lt_c
                    # Rows outside the walk executed an exact +0.0, a
                    # bitwise no-op on their load (demand holds no -0.0).
                    load[cand] += ex_c
                    np.less(head, tail, out=owes)
                overdue_any = np.count_nonzero(owes) > 0

        # ---- Serial branch decision, with this hour's true load.
        # The hour's supply operand: a (D,) row gathered from the supply rows.
        np.subtract(supply[:, hour][row_supply], load, out=gap)
        short = short_plane[hour]
        np.less_equal(gap, zero, out=short)
        n_short = np.count_nonzero(short)
        any_sup = n_short < n_rows
        all_sup = n_short == 0

        # ---- 2. Surplus soak: run_queued(min(gap, headroom), hour, False).
        if any_sup and (ring_rows or overdue_any):
            np.subtract(cmw, load, out=headroom)
            np.minimum(gap, headroom, out=budget)
            np.greater(budget, eps, out=soak_mask)
            np.greater(queued_total, eps, out=flag)
            soak_mask &= flag
            order = ring_order[slot_due]
            if overdue_any:
                np.logical_and(owes, soak_mask, out=act)
                if np.count_nonzero(act):
                    _soak_replay_rows(
                        act.nonzero()[0], soak_mask, budget, queued_total,
                        late, load, gap, Qflat, head, tail, ring_amt,
                        order, fresh if appended else None,
                    )
                    np.less(head, tail, out=owes)
                    overdue_any = np.count_nonzero(owes) > 0
            sidx = soak_mask.nonzero()[0]
            if ring_rows and sidx.size and order.size:
                # Ring entries in increasing-deadline order = the serial
                # queue's FIFO order, with the serial loop's exact
                # expressions (``take = min(amount, budget - executed)``,
                # pop at ``take >= amount - eps``).  Each slot holds at
                # most one entry per row (a deferral at hour h uniquely
                # targets deadline h + dl), so a slot IS a queue entry,
                # and an empty one is a column of exact +0.0 that every
                # expression below passes through unchanged: the sheet
                # spans every not-yet-due slot.  It runs *compressed* to
                # the soak-gated rows: every other row would flow through
                # the take/pop expressions as a bitwise no-op (a +/-0.0
                # budget can never pass the ``rem > eps`` gate), and soak
                # rows are sparse — a few percent of a merged block on a
                # typical hour.
                cells = ring_cells[slot_due] + sidx
                bud_c = budget[sidx]
                # The serial walk takes entries whole until the budget
                # runs dry, so its running ``executed`` along that prefix
                # IS the left-fold prefix sum of the amounts: one
                # accumulate over a zero-seeded sheet gives every slot's
                # ``rem``, and the per-entry ``rem > eps`` gate /
                # ``min(amount, rem)`` take / ``take >= amount - eps``
                # pop evaluate on the whole (slot x row) sheet at once.
                # Past a partial take the sheet's rem goes negative and
                # gates every later slot off, exactly like the serial
                # loop whose rem sticks at ~0; the one (vanishing)
                # divergence is a partial whose serial residual still
                # clears the epsilon gate, replayed exactly below.
                sheet = np.empty((order.size + 1, sidx.size))
                sheet[0] = 0.0
                entries = sheet[1:]
                ring_amt.take(cells, None, entries, "clip")
                prefix = np.add.accumulate(sheet, axis=0)
                rem2 = np.subtract(bud_c, prefix[:-1])
                gate2 = np.greater(rem2, eps)
                take2 = np.minimum(entries, rem2, out=prefix[1:])
                np.multiply(take2, gate2, out=take2)
                left2 = np.subtract(entries, eps, out=rem2)
                pop2 = np.greater_equal(take2, left2)
                pop2 &= gate2
                np.subtract(entries, take2, out=left2)
                np.copyto(left2, zero, where=pop2)
                # ``executed`` and the queue meter are serial per-take
                # left folds (a lump-sum add would round differently).
                # The first take is never -0.0 (the first slot always
                # passes the gate of a soak row), so accumulating the
                # takes alone equals the zero-seeded fold; the queue
                # meter accumulates from its seed row above the takes.
                ex_c = np.add.accumulate(take2, axis=0)[-1]
                prefix[0] = queued_total[sidx]
                qt_c = np.subtract.accumulate(prefix, axis=0)[-1]
                # The replay hazard needs budget left after the sheet and
                # an entry the sheet left unfinished (an untouched or
                # partly taken one); a row that took all of its entries
                # whole leaves an all-zero column.
                hazard = np.greater(np.subtract(bud_c, ex_c), eps)
                hazard &= left2.any(axis=0)
                if np.count_nonzero(hazard):
                    for j in hazard.nonzero()[0]:
                        ex_c[j], qt_c[j] = _soak_exact_column(
                            entries[:, j], left2[:, j],
                            float(bud_c[j]), float(prefix[0, j]),
                        )
                ring_amt.put(cells, left2)
                queued_total[sidx] = qt_c
                # No takes leave ex at +0.0 and every update below a
                # bitwise no-op (load and the soak lanes' gap carry no
                # -0.0), so the tail runs unconditionally.
                load[sidx] += ex_c
                # Serial ``max(gap - ran, 0.0)``: the difference of a
                # positive gap and a take is never -0.0, so np.maximum
                # has no signed-zero tie to break.
                g_c = gap[sidx]
                np.subtract(g_c, ex_c, out=g_c)
                np.maximum(g_c, zero, out=g_c)
                gap[sidx] = g_c

        # ---- 3. Surplus: battery charge chain (maskless; dead lanes
        # resolve to +0.0 power through the serial clamp order).
        if any_sup:
            np.minimum(gap, maxc, out=power)
            np.subtract(cap, energy, out=limit)
            np.divide(limit, eta_c, out=limit)
            np.minimum(power, limit, out=power)
            np.maximum(power, zero, out=power)
            np.multiply(power, eta_c, out=scratch)
            np.add(energy, scratch, out=energy)
            np.add(charged, power, out=charged)
            np.subtract(gap, power, out=scratch)
            np.maximum(scratch, zero, out=value[:, hour])

        # ---- 4. Deficit: battery, then deferral, then the grid.
        if not all_sup:
            np.negative(gap, out=deficit)
            if any_battery:
                np.minimum(deficit, maxd, out=power)
                np.subtract(energy, floor, out=limit)
                np.multiply(limit, eta_d, out=limit)
                np.minimum(power, limit, out=power)
                np.maximum(power, zero, out=power)
                np.divide(power, eta_d, out=scratch)
                np.subtract(energy, scratch, out=energy)
                np.add(discharged, power, out=discharged)
                np.subtract(deficit, power, out=deficit)
            if can_defer:
                np.multiply(fr, demand_h, out=deferred)
                np.minimum(deficit, deferred, out=deferred)
                np.greater(deferred, eps, out=defer_mask)
                ndefer = np.count_nonzero(defer_mask)
                if ndefer:
                    # This slot was the due slot last hour, so it is empty
                    # now (drained and zeroed): this hour's deferrals are
                    # written straight in as its only entries.
                    slot = (hour + dl) % ring_n
                    into = ring_amt[slot]
                    np.multiply(deferred, defer_mask, out=into)
                    np.add(into, zero, out=into)
                    np.subtract(load, into, out=load)
                    np.subtract(deficit, into, out=deficit)
                    np.add(queued_total, into, out=queued_total)
                    np.add(deferred_total, into, out=deferred_total)
                    np.add(events, defer_mask, out=events)
                    occ[slot] = ndefer
                    ring_rows += ndefer
            # Short rows overwrite the surplus step's column entry, which
            # is an exact +0.0 there: the surplus of a row that ran short.
            np.copyto(value[:, hour], deficit, where=short)

        if planes:
            shifted[:, hour] = load
            charge[:, hour] = energy

    if fr_zero.any():
        # The serial kernel's flexible_ratio == 0 delegations write their
        # grid column with np.maximum (never -0.0); the combined loop's
        # python max keeps -0.0.  Normalize those rows to the delegate, in
        # place: a gathered copy would cost two more (Z, H) planes.  Their
        # surplus cells are never -0.0, so adding +0.0 leaves them as is.
        np.add(value, 0.0, out=value, where=fr_zero[:, None])
    return CombinedRunBatch(
        value, short_plane, deferred_total, late, queued_total, charged,
        discharged, events, shifted, charge,
    )


def _soak_replay_rows(
    rows, soak_mask, budget, queued_total, late, load, gap,
    Qflat, head, tail, ring_amt, order, fresh,
):
    """Serial soak replay for rows whose budget survived step 1's drain.

    Overdue work outlives step 1 only when the hour's capacity budget is
    exhausted, and then the soak budget fails its epsilon gate — except
    when ``cmw - load`` re-rounds an ulp above ``headroom - executed``.
    For those (vanishingly rare) rows, replay the serial run_queued walk
    exactly: buffer entries ``head``-first (absolute cursors into
    ``Qflat``, ``tail`` one past the row's last entry), then the ring
    slots of ``order`` (the not-yet-due ones, in deadline order).  Every
    buffer take is late unless it is from the entry the row appended
    this very hour (``fresh`` is step 1's append mask, or None if no row
    appended), which carries deadline == hour and is always the row's
    last entry.  Updates the meters, the cursors, ``load`` and ``gap`` in
    place and takes the rows out of ``soak_mask``.
    """
    for row in rows.tolist():
        soak_mask[row] = False
        budget_row = float(budget[row])
        total_row = float(queued_total[row])
        late_row = float(late[row])
        exec_row = 0.0
        hd = int(head[row])
        tl = int(tail[row])
        fresh_at = tl - 1 if fresh is not None and fresh[row] else -1
        while hd < tl and budget_row - exec_row > _EPSILON_MWH:
            amount = float(Qflat[hd])
            remaining = budget_row - exec_row
            take = amount if amount <= remaining else remaining
            exec_row += take
            total_row -= take
            if hd != fresh_at:
                late_row += take
            if take >= amount - _EPSILON_MWH:
                hd += 1
            else:
                Qflat[hd] = amount - take
        head[row] = hd
        if hd == tl:
            for slot in order.tolist():
                if budget_row - exec_row <= _EPSILON_MWH:
                    break
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
