"""Exhaustive carbon minimization over the design space (paper §5, Fig. 13).

    "Carbon Explorer exhaustively searches the design space to minimize the
    sum of operational and embodied carbon. ... Finally, Carbon Explorer
    outputs the carbon-optimal investments in renewable energy generation,
    battery capacity, and server capacity."

The optimizer evaluates every point of a :class:`DesignSpace` grid under a
strategy and returns the minimizer along with every evaluation (the sweeps
double as the raw data for the Pareto and Fig. 15 analyses).

Sweeps are *resilient* (see :mod:`repro.resilience` and DESIGN.md's
"Resilience" section): the grid is processed in contiguous chunks; a
failed chunk — crashed worker, poisoned pool, stall past the adaptive
stall budget, corrupt payload — is requeued, and a chunk that exhausts
its retries quarantines the site, whose remaining chunks are evaluated
serially in-process, so a sweep always completes with results
bitwise-identical to a fault-free serial run.  With ``checkpoint=``
every completed chunk is journaled as it finishes, and ``resume=True``
skips the journaled grid indices after validating the journal's
fingerprint against the exact sweep being run.

This module is *policy*, not mechanism: :func:`optimize` runs a one-site
:func:`repro.core.fleet.prepare_fleet` sweep and unwraps the finished
site into an :class:`OptimizationResult`.  All pool, shared-memory,
journal, and commit mechanics live in :mod:`repro.core.engine`.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..obs import ProgressCallback, SweepEvents, get_logger, span
from ..resilience import FleetFaultPlan, SweepInterrupted
from ..resilience.checkpoint import PathLike, sweep_journal_path
from .design import DesignSpace, Strategy, default_design_space
from .evaluate import SiteContext
from .fleet import FleetInterrupted, OptimizationResult, prepare_fleet

_log = get_logger("core.optimizer")


def optimize(
    context: SiteContext,
    space: DesignSpace,
    strategy: Strategy,
    progress: Optional[ProgressCallback] = None,
    workers: int = 1,
    max_retries: int = 2,
    chunk_timeout: Optional[float] = None,
    checkpoint: Optional[PathLike] = None,
    resume: bool = False,
    faults: Optional[FleetFaultPlan] = None,
    shm: bool = True,
    events: Optional[SweepEvents] = None,
    batch_size: Optional[int] = None,
) -> OptimizationResult:
    """Exhaustively evaluate ``space`` under ``strategy`` for one site.

    The sweep is a one-site :func:`repro.core.fleet.sweep_fleet`, keyed
    by ``context.site_state``: every argument below means what it means
    there, and the finished site is returned as an
    :class:`OptimizationResult`.

    ``progress``, when given, is called with ``(done, total,
    strategy_name)`` once per committed chunk — ``done`` is a completed
    *count*, not a grid position; see :class:`repro.obs.ProgressCallback`
    for the exact semantics (resumed sweeps start at the checkpointed
    count).

    ``events``, when given, receives the sweep's lifecycle on a
    :class:`repro.obs.SweepEvents` bus: ``sweep_started``, one
    ``chunk_completed`` per committed chunk (chunks restored from a
    resumed journal are mirrored with ``resumed: true`` before any live
    chunk), ``chunk_retried`` per re-submitted parallel chunk,
    ``frontier_updated`` whenever a committed chunk lowers the running
    best total carbon, ``site_quarantined`` / ``sweep_degraded`` if a
    chunk exhausts its retries, and ``sweep_finished`` with the optimum
    and the site's status.  Grid chunking is a pure function of the grid
    size, so the ``chunk_completed`` count is identical serial vs.
    parallel; the bus is never closed here (callers may run several
    sweeps over one bus).

    Resilience (see :mod:`repro.resilience`):

    * ``workers > 1`` fans grid chunks across a process pool; a failed or
      stalled chunk is requeued up to ``max_retries`` times, after which
      the remaining chunks are evaluated serially in-process, so the
      sweep completes with evaluations bitwise-identical to a serial run
      regardless of worker crashes.  ``chunk_timeout`` (seconds) seeds
      the stall detector; once chunks complete, an EWMA of their
      durations sets the budget.
    * ``checkpoint`` names a journal file appended to as chunks finish;
      ``resume=True`` loads it, validates its fingerprint against this
      exact sweep, and skips already-journaled grid indices.  An
      interrupt (Ctrl-C) flushes the journal and raises
      :class:`repro.resilience.SweepInterrupted` with the partial
      progress.
    * ``faults`` injects deterministic worker kills / delays / corrupt
      payloads (tests and CI only; see
      :class:`repro.resilience.FleetFaultPlan`).
    * ``shm`` (default on) ships the context to workers through the
      zero-copy shared-memory trace plane (:mod:`repro.core.shm`): the
      traces are packed into one segment and each pool initializer gets a
      <1 KB :class:`~repro.core.shm.SiteContextHandle` instead of the
      ~850 KB context pickle.  The segment is created once per sweep,
      re-attached by a rebuilt pool's workers, and unlinked on every exit
      path (completion, exception, interrupt).  ``shm=False`` — or a
      platform where segment creation fails, which logs a warning —
      falls back to pickling the full context.  Results are bitwise
      identical either way.
    * ``batch_size`` only widens chunks, to at least ``batch_size`` grid
      points (still a pure function of the grid and this argument, never
      of ``workers``).  Every chunk — serial, in a worker, in the
      quarantine's serial drain, resumed or not — goes through
      :func:`repro.core.evaluate.evaluate_block`, which routes it by
      strategy and row count alone: a block that reaches its batch floor
      runs one ``(design, hour)`` kernel call (:mod:`repro.kernels.batch`),
      a smaller one runs per design.  Every evaluation is
      bitwise-identical either way.  ``None`` (the default) keeps the
      grid's default chunking.

    Raises
    ------
    ValueError
        If ``workers < 1``, ``max_retries < 0``, ``chunk_timeout <= 0``,
        ``batch_size < 1``, ``resume`` is requested without a
        ``checkpoint``, or the constrained space is empty.
    repro.resilience.CheckpointError
        If the checkpoint file is damaged.
    repro.resilience.CheckpointMismatchError
        If the checkpoint belongs to a different site/seed/space/strategy.
    """
    site = context.site_state
    handle = prepare_fleet(
        [(site, context, space)],
        strategy,
        workers=workers,
        max_retries=max_retries,
        chunk_timeout=chunk_timeout,
        checkpoint={site: checkpoint} if checkpoint is not None else None,
        resume=resume,
        faults=faults,
        shm=shm,
        events=events,
        batch_size=batch_size,
        progress=progress,
    )
    total = space.size(strategy)
    _log.info(
        "sweep start: site=%s strategy=%s grid_points=%d workers=%d",
        site,
        strategy.value,
        total,
        workers,
    )
    try:
        with span(
            "optimize",
            strategy=strategy.value,
            site=site,
            grid_points=total,
            workers=workers,
        ):
            fleet = handle.run()
    except FleetInterrupted:
        if checkpoint is None:
            raise KeyboardInterrupt from None
        raise SweepInterrupted(
            checkpoint=str(checkpoint),
            done=handle.done_points,
            total=total,
            strategy=strategy.value,
        ) from None
    result = fleet.sites[0].result
    assert result is not None, "a one-site sweep without a deadline always finishes"
    _log.info(
        "sweep done: site=%s strategy=%s best_total_tons=%.1f coverage=%.3f",
        site,
        strategy.value,
        result.best.total_tons,
        result.best.coverage,
    )
    return result


def optimize_all_strategies(
    context: SiteContext,
    space: Optional[DesignSpace] = None,
    progress: Optional[ProgressCallback] = None,
    workers: int = 1,
    max_retries: int = 2,
    chunk_timeout: Optional[float] = None,
    checkpoint: Optional[PathLike] = None,
    resume: bool = False,
    faults: Optional[FleetFaultPlan] = None,
    shm: bool = True,
    events: Optional[SweepEvents] = None,
    batch_size: Optional[int] = None,
) -> Dict[Strategy, OptimizationResult]:
    """Run the exhaustive sweep for all four strategies of Fig. 15.

    When ``space`` is omitted a :func:`default_design_space` is built from
    the site's size and the local grid's available resources.  All sweep
    keyword arguments are forwarded to each per-strategy :func:`optimize`
    call; ``checkpoint`` is treated as a *base* path — each strategy
    journals to ``<checkpoint>.<strategy_name>`` (lowercase enum name,
    e.g. ``sweep.ckpt.renewables_battery``) so the four sweeps never share
    a journal.
    """
    if space is None:
        space = default_design_space(
            avg_power_mw=context.demand.avg_power_mw,
            supports_solar=context.supports_solar,
            supports_wind=context.supports_wind,
        )
    return {
        strategy: optimize(
            context,
            space,
            strategy,
            progress=progress,
            workers=workers,
            max_retries=max_retries,
            chunk_timeout=chunk_timeout,
            checkpoint=strategy_checkpoint_path(checkpoint, strategy),
            resume=resume,
            faults=faults,
            shm=shm,
            events=events,
            batch_size=batch_size,
        )
        for strategy in Strategy
    }


def strategy_checkpoint_path(
    checkpoint: Optional[PathLike], strategy: Strategy
) -> Optional[str]:
    """Per-strategy journal path derived from a base checkpoint path.

    Thin wrapper over :func:`repro.resilience.checkpoint.sweep_journal_path`
    (the one suffix scheme shared with per-site fleet journals).
    """
    return sweep_journal_path(checkpoint, strategy.name)
