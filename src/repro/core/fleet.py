"""Fleet sweep policy: all sites, one engine, per-site fault domains.

The paper's headline results (Figs. 9, 14, 15) rank all thirteen grids
against each other.  :func:`sweep_fleet` schedules the entire fleet over
**one shared worker pool**, as *policy* over the
:class:`repro.core.engine.SweepEngine` dispatch loop, and every other
sweep runs through it too: :func:`repro.core.optimizer.optimize` is a
one-site fleet whose finished :class:`SiteSweep` is unwrapped into the
:class:`OptimizationResult` it returns.

* **One shm segment per site** — every site's traces are packed into its
  own shared-memory segment (:mod:`repro.core.shm`); workers receive the
  full map of tiny handles at pool init and attach a site's segment
  lazily, the first time they evaluate one of its chunks.
* **Site-interleaved dispatch** — per-site chunk queues are drained
  round-robin, so a site with slow chunks cannot starve the others and
  partial results accrue across the whole fleet at once.  A serial
  combined-strategy sweep evaluates each lap of chunks in one call,
  which merges the rows across sites into one kernel block once the
  lap reaches the batch floor
  (:func:`~repro.core.evaluate.evaluate_block_sites`); other strategies
  evaluate one chunk at a time.  Commits stay per chunk, in lap order.
* **Cross-site work stealing** (always on in pooled sweeps) — when a
  site's queue drains, its share of the in-flight budget is re-granted
  to the site with the largest remaining grid, so one oversized site
  cannot serialize behind its fair share once the small sites finish.
  Stealing moves *capacity*, never chunks, so per-site results stay
  bitwise-identical to the serial sweep.
* **Per-site fault domains** — a failed chunk is requeued at the tail of
  its site's queue (the shared pool keeps serving other chunks in the
  meantime, so no backoff window is needed).  A site whose segment
  cannot be attached, or whose chunk exhausts ``max_retries``, is
  *quarantined*: its remaining chunks degrade to serial in-parent
  evaluation (status ``degraded``) while every other site keeps
  sweeping.  Chunk evaluation is deterministic, so a
  quarantined-but-completed site is still bitwise-identical to a
  fault-free serial sweep.
* **Deadline budgets** — ``deadline_s`` bounds the fleet's wall clock;
  when it trips, unfinished sites are closed out as
  ``deadline_exceeded`` with their partial frontiers instead of hanging
  the caller.  Stall detection is *adaptive*: ``chunk_timeout`` seeds an
  EWMA over observed chunk durations
  (:class:`repro.resilience.AdaptiveChunkTimeout`), which takes over as
  chunks complete.
* **Streaming partial results** — the sweep narrates itself onto a
  :class:`repro.obs.SweepEvents` bus (``sweep_started`` /
  ``chunk_completed`` / ``frontier_updated`` / ``capacity_stolen`` /
  ``site_quarantined`` / ``sweep_degraded`` / ``deadline_exceeded`` /
  ``sweep_finished``), each event emitted once from the engine's commit
  point.  Every consumer — a JSONL sink, the CLI's progress ticker,
  ``repro rank --stream`` — is a subscriber of that bus, and the bus
  itself derives the sweep counters and log lines from the events.

Chunk boundaries come from the pure
:func:`~repro.core.engine.sweep_chunk_size` function, and per-site
journals are written with the same fingerprints whichever entry point
runs the sweep, so a ``repro rank`` journal resumes under
:func:`~repro.core.optimizer.optimize` and vice versa (both derive
journal names through :func:`repro.resilience.checkpoint.sweep_journal_path`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

from ..obs import SweepEvents, get_logger, span
from ..resilience import AdaptiveChunkTimeout, FleetFaultPlan
from ..resilience.checkpoint import PathLike, sweep_journal_path
from .design import Strategy
from .engine import EngineSite, SiteRun, SiteStatus, SweepEngine
from .evaluate import DesignEvaluation
from .pareto import pareto_frontier

_log = get_logger("core.fleet")

#: One fleet site: (site key, context, design space).  Keys must be unique;
#: the CLI uses state codes.
FleetSite = EngineSite

#: A base journal path (each site journals to ``<base>.<site lowercase>``)
#: or an explicit site key → journal path map.
FleetCheckpoint = Union[PathLike, Mapping[str, PathLike]]


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of one exhaustive sweep.

    Attributes
    ----------
    strategy:
        The solution portfolio the sweep was constrained to.
    best:
        The evaluation minimizing total (operational + embodied) carbon.
    evaluations:
        Every grid point evaluated, in grid order.
    """

    strategy: Strategy
    best: DesignEvaluation
    evaluations: Tuple[DesignEvaluation, ...]

    @property
    def n_evaluated(self) -> int:
        """Number of designs the sweep evaluated."""
        return len(self.evaluations)

    def best_coverage(self) -> float:
        """Coverage of the carbon-optimal design (a Fig. 15 annotation)."""
        return self.best.coverage


@dataclass(frozen=True)
class SiteSweep:
    """One site's outcome inside a :class:`FleetResult`.

    ``evaluations`` holds every *committed* evaluation in grid order —
    the full grid for ``complete``/``degraded`` sites, a partial prefix
    pattern for ``deadline_exceeded`` ones.  ``result`` is the
    site's :class:`OptimizationResult` when the sweep finished
    (bitwise-identical to a standalone fault-free serial
    :func:`~repro.core.optimizer.optimize`), else ``None``.
    """

    site: str
    status: SiteStatus
    total: int
    completed: int
    evaluations: Tuple[DesignEvaluation, ...]
    result: Optional[OptimizationResult]
    quarantined: bool = False
    error: Optional[str] = None

    @property
    def best(self) -> Optional[DesignEvaluation]:
        """Lowest-carbon evaluation committed so far (partial or final)."""
        if not self.evaluations:
            return None
        return min(self.evaluations, key=lambda e: e.total_tons)

    def frontier(self) -> Tuple[DesignEvaluation, ...]:
        """Pareto frontier of the committed evaluations (partial or final)."""
        return pareto_frontier(self.evaluations)


@dataclass(frozen=True)
class FleetResult:
    """Outcome of one fleet sweep: per-site status alongside partial results.

    Unlike a plain list of :class:`OptimizationResult`, a fleet sweep can
    *partially* succeed — that is the point.  Sites appear in input order.
    """

    strategy: Strategy
    sites: Tuple[SiteSweep, ...]
    deadline_s: Optional[float]
    elapsed_s: float

    def site(self, key: str) -> SiteSweep:
        """Look up one site's sweep by key."""
        for sweep in self.sites:
            if sweep.site == key:
                return sweep
        raise KeyError(f"no site {key!r} in this fleet result")

    def statuses(self) -> Dict[str, str]:
        """Site key → status value, in input order."""
        return {sweep.site: sweep.status.value for sweep in self.sites}

    @property
    def complete(self) -> bool:
        """Whether every site finished clean (no degradation, no drops)."""
        return all(sweep.status is SiteStatus.COMPLETE for sweep in self.sites)

    @property
    def finished(self) -> Tuple[SiteSweep, ...]:
        """Sites that produced a full :class:`OptimizationResult`."""
        return tuple(sweep for sweep in self.sites if sweep.result is not None)


class FleetInterrupted(KeyboardInterrupt):
    """A fleet sweep was interrupted; completed sites survive.

    Subclasses :class:`KeyboardInterrupt` (like
    :class:`~repro.resilience.SweepInterrupted`) so generic ``except
    Exception`` handlers cannot swallow it.  ``completed`` carries every
    site that finished before the interrupt — the CLI prints the partial
    rank table from it — ``done`` counts the grid points committed across
    the fleet (resumed ones included), and per-site journals (when
    checkpointing) hold every committed chunk for ``--resume``.
    """

    def __init__(
        self,
        completed: Tuple[SiteSweep, ...],
        pending: Tuple[str, ...],
        strategy: str,
        done: int,
        checkpoint: Optional[str] = None,
    ) -> None:
        super().__init__()
        self.completed = completed
        self.pending = pending
        self.strategy = strategy
        self.done = done
        self.checkpoint = checkpoint

    def __str__(self) -> str:
        done = ", ".join(s.site for s in self.completed) or "none"
        return (
            f"fleet sweep interrupted: completed sites [{done}], "
            f"{len(self.pending)} pending ({self.strategy})"
        )


def fleet_checkpoint_path(checkpoint: Optional[PathLike], site: str) -> Optional[str]:
    """Per-site journal path derived from a base checkpoint path.

    Thin wrapper over :func:`repro.resilience.checkpoint.sweep_journal_path`
    — the suffix scheme ``repro rank --checkpoint`` has always used
    (``<base>.<site lowercase>``), shared with per-strategy journals so
    fleet journals and per-site :func:`~repro.core.optimizer.optimize`
    journals are interchangeable.
    """
    return sweep_journal_path(checkpoint, site)


def _site_sweep(state: SiteRun, strategy: Strategy) -> SiteSweep:
    """Freeze one engine site's terminal state into a :class:`SiteSweep`."""
    status = state.status
    assert status is not None, "site closed without a terminal status"
    evaluations = state.partial_evaluations()
    result: Optional[OptimizationResult] = None
    if status in (SiteStatus.COMPLETE, SiteStatus.DEGRADED):
        best = min(evaluations, key=lambda e: e.total_tons)
        result = OptimizationResult(
            strategy=strategy, best=best, evaluations=evaluations
        )
    return SiteSweep(
        site=state.key,
        status=status,
        total=state.total,
        completed=len(evaluations),
        evaluations=evaluations,
        result=result,
        quarantined=state.quarantined,
        error=state.error,
    )


def sweep_fleet(
    sites: Sequence[FleetSite],
    strategy: Strategy,
    *,
    workers: int = 1,
    deadline_s: Optional[float] = None,
    max_retries: int = 2,
    chunk_timeout: Optional[float] = None,
    checkpoint: Optional[FleetCheckpoint] = None,
    resume: bool = False,
    faults: Optional[FleetFaultPlan] = None,
    shm: bool = True,
    events: Optional[SweepEvents] = None,
    batch_size: Optional[int] = None,
) -> FleetResult:
    """Sweep every site of a fleet over one shared worker pool.

    Semantics (per-site fault domains, quarantine, deadline budgets,
    adaptive stall detection, journals, events, work stealing) are
    described in the module docstring; parameters mirror
    :func:`~repro.core.optimizer.optimize` where they overlap:

    * ``sites`` — ``(key, context, space)`` triples; keys must be unique.
    * ``workers`` — pool size shared by the whole fleet; ``1`` sweeps
      serially in-process (round-robin across sites, fault-free oracle).
    * ``deadline_s`` — fleet-wide wall-clock budget; ``None`` is
      unbounded.
    * ``max_retries`` — re-submissions per failed chunk before its site
      is quarantined: its remaining chunks finish serially in-parent
      (status ``degraded``).
    * ``chunk_timeout`` — initial stall budget; an EWMA over observed
      chunk durations (:class:`~repro.resilience.AdaptiveChunkTimeout`)
      takes over as completions accrue.
    * ``checkpoint`` — *base* journal path; each site journals to
      ``<base>.<site lowercase>`` (same scheme as ``repro rank``).  A
      mapping of site key → journal path names each journal exactly
      (what :func:`~repro.core.optimizer.optimize` passes).
    * ``faults`` — a :class:`~repro.resilience.FleetFaultPlan` (tests and
      CI only); fires in pool workers only, and every site it names must
      be a key of ``sites``.
    * ``events`` — the :class:`~repro.obs.SweepEvents` bus the sweep
      narrates onto; its subscribers (a JSONL sink, a progress ticker,
      ``repro rank --stream``) run synchronously as each event fires.
      ``None`` narrates onto a private bus.
    * ``batch_size`` — widens each site's chunks to at least this many
      grid points, and nothing else: every chunk and combined serial
      lap goes through :func:`~repro.core.evaluate.evaluate_block_sites`, which
      batches a block by its strategy and row count alone.  Results are
      bitwise-identical at any value.

    Returns a :class:`FleetResult` with per-site statuses and partial
    frontiers; raises :class:`FleetInterrupted` on Ctrl-C, and
    :class:`ValueError` on an invalid argument or an empty site grid.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if deadline_s is not None and deadline_s <= 0:
        raise ValueError(f"deadline_s must be positive or None, got {deadline_s}")
    if max_retries < 0:
        raise ValueError(f"max_retries must be >= 0, got {max_retries}")
    if chunk_timeout is not None and chunk_timeout <= 0:
        raise ValueError(
            f"chunk_timeout must be positive or None, got {chunk_timeout}"
        )
    if batch_size is not None and batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if resume and checkpoint is None:
        raise ValueError("resume=True requires a checkpoint path")
    if not sites:
        raise ValueError("sweep_fleet needs at least one site")
    keys = [key for key, _, _ in sites]
    if len(set(keys)) != len(keys):
        raise ValueError(f"duplicate site keys in fleet: {keys}")
    unknown = sorted(set(faults.sites) - set(keys)) if faults is not None else []
    if unknown:
        raise ValueError(
            f"fault plan names sites not in this sweep: {unknown} "
            f"(sweep sites: {keys})"
        )

    base: Optional[PathLike] = None
    if checkpoint is None or isinstance(checkpoint, Mapping):
        checkpoints = checkpoint
    else:
        base = checkpoint
        checkpoints = {key: fleet_checkpoint_path(base, key) for key in keys}
    engine = SweepEngine(
        sites,
        strategy,
        workers=workers,
        deadline_s=deadline_s,
        max_retries=max_retries,
        timeout=AdaptiveChunkTimeout(initial_s=chunk_timeout),
        checkpoints=checkpoints,
        resume=resume,
        faults=faults,
        shm=shm,
        events=events,
        batch_size=batch_size,
    )
    for state in engine.states:
        if state.total == 0:
            raise ValueError(
                f"design space for site {state.key!r} produced no points"
            )

    started_s = time.monotonic()
    interrupted = False
    try:
        engine.setup()
        _log.info(
            "fleet sweep start: sites=%d strategy=%s grid_points=%d "
            "workers=%d deadline_s=%s",
            len(engine.states),
            strategy.value,
            engine.fleet_total,
            workers,
            deadline_s,
        )
        with span(
            "sweep_fleet",
            strategy=strategy.value,
            n_sites=len(engine.states),
            grid_points=engine.fleet_total,
            workers=workers,
        ):
            engine.dispatch()
    except KeyboardInterrupt:
        interrupted = True
        raise FleetInterrupted(
            completed=tuple(
                _site_sweep(state, strategy)
                for state in engine.states
                if state.status is not None
            ),
            pending=tuple(
                state.key for state in engine.states if state.status is None
            ),
            strategy=strategy.value,
            done=sum(state.done_points for state in engine.states),
            checkpoint=str(base) if base is not None else None,
        ) from None
    finally:
        engine.cleanup(interrupted=interrupted)

    elapsed_s = time.monotonic() - started_s
    result = FleetResult(
        strategy=strategy,
        sites=tuple(_site_sweep(state, strategy) for state in engine.states),
        deadline_s=deadline_s,
        elapsed_s=elapsed_s,
    )
    _log.info("fleet sweep done in %.2fs: %s", elapsed_s, result.statuses())
    return result
