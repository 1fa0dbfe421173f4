"""Unified sweep engine: the one dispatch loop under every grid sweep.

Every exhaustive sweep -- :func:`repro.core.optimizer.optimize` for one
site, :func:`repro.core.fleet.sweep_fleet` for many -- runs through
:class:`SweepEngine` in a single mode.  This module owns:

* **Chunk planning** — :func:`sweep_chunk_size` /
  :func:`_chunk_missing_indices` are pure functions of the grid (never
  of ``workers``), so chunk boundaries, journal granularity, and the
  ``chunk_completed`` event stream are identical serial vs. parallel,
  one site vs. many.
* **Worker plane** — one pool initializer ships a ``site key →
  payload`` map (shared-memory handles by default); workers attach a
  site's segment lazily on its first chunk and cache the context for
  the pool's lifetime.
* **Pool lifecycle** — one long-lived pool, rebuilt on
  ``BrokenProcessPool``; every rebuild consumes chunk attempts, so a
  crash-looping chunk is bounded by ``max_retries``.
* **Resilience** — per-chunk attempt accounting (a failed chunk is
  requeued at its site's tail), EWMA-adaptive stall budgets seeded by
  ``chunk_timeout``, idempotent per-ordinal commits (a stalled chunk
  landing after its retry already committed is dropped, so journals
  never hold a chunk twice), journal resume, and per-site quarantine: a
  site whose chunk exhausts its retries drains serially in-parent, so a
  sweep always completes.
* **Cross-site work stealing** — each site gets a fair share of the
  in-flight budget; when a site's queue drains (or it is quarantined),
  its capacity is re-granted to the site with the largest remaining
  grid, so one huge site cannot serialize behind its fair share once
  the small sites finish.

Each sweep fact is stated once, as an event on the sweep's bus: a
committed chunk is one ``chunk_completed`` (progress tickers and streams
are subscribers), and the engine is the only place a sweep's
``sweep_started`` / ``sweep_finished`` events are emitted.  The bus
derives the sweep counters, gauges and log lines from those events, so
the engine keeps only the facts no event carries (chunk failures, serial
fallbacks, the context pickle size, the live deadline gauge, and the
failure and stall warnings).
"""

from __future__ import annotations

import math
import multiprocessing
import os
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass
from enum import Enum, unique
from typing import (
    Any,
    Deque,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..obs import (
    SweepEvents,
    export_spans,
    get_logger,
    get_tracer,
    inc,
    merge_snapshot,
    metrics_enabled,
    metrics_snapshot,
    reset_metrics,
    reset_tracing,
    set_gauge,
    span,
    tracing_enabled,
)
from ..resilience import (
    AdaptiveChunkTimeout,
    CheckpointJournal,
    FaultAction,
    FaultKind,
    FleetFaultPlan,
    JournalHeader,
    JOURNAL_VERSION,
    corrupt_payload,
    execute_pre_fault,
    load_resumable_chunks,
    sweep_fingerprint,
    validate_chunk_result,
)
from ..resilience.checkpoint import PathLike
from ..resilience.validate import ChunkValidationError
from .design import DesignPoint, DesignSpace, Strategy
from .evaluate import (
    DesignEvaluation,
    SiteContext,
    batch_min_rows_override,
    evaluate_block,  # perfbench/layers.py patches this name: the evaluate layer
    evaluate_block_sites,
    evaluate_design,  # unused here, but perfbench/layers.py patches this name too
    merges_sites,
)
from .shm import (
    SharedContextError,
    SharedSiteContext,
    SiteContextHandle,
    attach_context,
    handle_pickle_bytes,
    share_context,
)

_log = get_logger("core.engine")

#: Target number of grid chunks per sweep.  Deliberately a pure function
#: of the grid size, *not* of ``workers``: identical chunk boundaries
#: serial vs. parallel are what make the sweep-event stream (one
#: ``chunk_completed`` per chunk), the checkpoint journal granularity,
#: and the per-chunk span histograms worker-count independent.  32 keeps
#: ≥4 chunks in flight per worker for pools of up to 8, so a slow chunk
#: still cannot straggle the pool.
_TARGET_CHUNKS = 32

#: How the scheduler's wait loop ticks, seconds: short enough that
#: deadline and stall checks stay responsive, long enough not to spin.
_TICK_S = 0.05

#: In-flight chunks per pool slot; 2 keeps every worker fed without
#: queueing so much that one site's burst delays the others' turns.
_INFLIGHT_PER_WORKER = 2

#: A chunk of contiguous grid work: (ordinal, start index, stop index).
_Chunk = Tuple[int, int, int]

#: One engine site: (site key, context, design space).  Keys must be
#: unique; single-site sweeps use the context's state code.
EngineSite = Tuple[str, SiteContext, DesignSpace]

#: What the pool initializer ships per site: a tiny shared-memory handle
#: (the default trace plane) or, with ``shm=False`` / on platforms
#: without shared memory, the full pickled context.
_ContextPayload = Union[SiteContext, SiteContextHandle]


@unique
class SiteStatus(Enum):
    """Terminal status of one site within a sweep."""

    COMPLETE = "complete"
    DEGRADED = "degraded"
    DEADLINE_EXCEEDED = "deadline_exceeded"


def sweep_chunk_size(total: int, batch_size: Optional[int] = None) -> int:
    """Chunk width for a sweep over ``total`` grid points.

    A pure function of the grid (and an explicit ``batch_size``), never
    of ``workers`` — identical chunk boundaries serial vs. parallel vs.
    fleet are what make the ``chunk_completed`` event stream, the
    checkpoint journal granularity, and the per-chunk span histograms
    engine independent.  Both entry points (:func:`~repro.core.optimize`
    and :func:`~repro.core.sweep_fleet`) chunk through this function, so
    their journals stay interchangeable.
    """
    size = max(1, math.ceil(total / _TARGET_CHUNKS))
    if batch_size is not None:
        size = max(size, batch_size)
    return size


def _chunk_missing_indices(
    filled: Sequence[bool], chunk_size: int
) -> List[_Chunk]:
    """Contiguous runs of unfilled grid indices, split into chunks.

    Ordinals number the chunks in grid order; they are what a fault plan
    addresses and they stay stable across retries.
    """
    chunks: List[_Chunk] = []
    total = len(filled)
    index = 0
    while index < total:
        if filled[index]:
            index += 1
            continue
        run_start = index
        while index < total and not filled[index]:
            index += 1
        for start in range(run_start, index, chunk_size):
            chunks.append((len(chunks), start, min(start + chunk_size, index)))
    return chunks


def _mp_context() -> Optional[multiprocessing.context.BaseContext]:
    """Start-method override for sweep pools (``REPRO_MP_START_METHOD``).

    Unset means the platform default.  CI sets ``spawn`` so the trace
    plane is exercised without fork inheritance; ``fork``/``forkserver``
    are accepted where the platform provides them.  Any other value
    raises ``ValueError`` naming the variable and the accepted methods.
    """
    method = os.environ.get("REPRO_MP_START_METHOD")
    if not method:
        return None
    accepted = multiprocessing.get_all_start_methods()
    if method not in accepted:
        raise ValueError(
            f"REPRO_MP_START_METHOD must be one of {', '.join(accepted)}, "
            f"got {method!r}"
        )
    return multiprocessing.get_context(method)


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------

#: Site key → payload (shm handle or pickled context) for every site of
#: the sweep, shipped once via the pool initializer.
_worker_payloads: Dict[str, _ContextPayload] = {}

#: Site key → rebuilt context, resolved lazily per worker on first chunk.
_worker_contexts: Dict[str, SiteContext] = {}

_worker_collect_metrics = False
_worker_collect_spans = False


def _init_worker(
    payloads: Dict[str, _ContextPayload],
    collect_metrics: bool,
    collect_spans: bool,
) -> None:
    global _worker_payloads, _worker_collect_metrics, _worker_collect_spans
    _worker_payloads = payloads
    # A fork-started worker inherits the parent's module state; contexts
    # resolved in a previous pool's worker must not leak into this one.
    _worker_contexts.clear()
    _worker_collect_metrics = collect_metrics
    _worker_collect_spans = collect_spans
    if collect_metrics:
        from ..obs import enable_metrics

        enable_metrics()
    if collect_spans:
        from ..obs import enable_tracing

        enable_tracing()


def _context_for(site: str) -> SiteContext:
    """This worker's context for ``site``, attaching its segment on first use."""
    context = _worker_contexts.get(site)
    if context is None:
        payload = _worker_payloads[site]
        if isinstance(payload, SiteContextHandle):
            context = attach_context(payload)
        else:
            context = payload
        _worker_contexts[site] = context
    return context


def _evaluate_chunk(
    site: str,
    start: int,
    designs: Sequence[DesignPoint],
    strategy: Strategy,
    fault: Optional[FaultAction] = None,
) -> Tuple[str, int, List[DesignEvaluation], Optional[Dict[str, Any]]]:
    """Evaluate one contiguous slice of a site's grid in a worker process.

    Returns ``(site, start, evaluations, telemetry)`` where ``telemetry``
    is this chunk's worker-registry metrics snapshot (reset at chunk
    start so snapshots are disjoint and the parent can merge counters
    and histogram buckets additively), extended — when the parent was
    tracing at pool creation — with the chunk's exported span records
    under ``"spans"`` and this worker's ``"pid"`` so the parent can
    render them on a per-process Chrome lane.  Metrics are reset
    *before* the lazy attach so a first attach's
    ``context_attach_count`` lands in this chunk's snapshot.  ``fault``
    is the test/CI fault injected into this attempt, if any.  The slice
    goes through :func:`evaluate_block`, which batches it or not by its
    strategy and row count alone (bitwise identical either way).
    """
    if _worker_collect_metrics:
        reset_metrics()
    if _worker_collect_spans:
        # drop_open: a fork-started worker inherits the parent's open
        # span stack; without dropping it our spans never become roots.
        reset_tracing(drop_open=True)
    if fault is not None and fault.kind is FaultKind.SHM:
        raise SharedContextError(
            f"injected shm fault: segment for site {site!r} is unattachable"
        )
    execute_pre_fault(fault)
    context = _context_for(site)
    evaluations: List[Any]
    with span("evaluate_chunk", site=site, start=start, n_designs=len(designs)):
        evaluations = evaluate_block(context, designs, strategy)
    telemetry: Optional[Dict[str, Any]] = (
        metrics_snapshot() if _worker_collect_metrics else None
    )
    if _worker_collect_spans:
        telemetry = dict(telemetry) if telemetry is not None else {}
        telemetry["spans"] = export_spans()
        telemetry["pid"] = os.getpid()
    if fault is not None and fault.kind is FaultKind.CORRUPT:
        evaluations = corrupt_payload(evaluations)
    return site, start, evaluations, telemetry


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------


class SiteRun:
    """Mutable per-site scheduling state (parent-side only)."""

    __slots__ = (
        "key",
        "context",
        "space",
        "designs",
        "total",
        "results",
        "journal",
        "queue",
        "chunks",
        "n_chunks",
        "attempts",
        "committed",
        "best_tons",
        "status",
        "quarantined",
        "serial_chunks",
        "error",
        "shared",
        "payload",
    )

    def __init__(
        self, key: str, context: SiteContext, space: DesignSpace, strategy: Strategy
    ) -> None:
        self.key = key
        self.context = context
        self.space = space
        self.designs: List[DesignPoint] = list(space.points(strategy))
        self.total = len(self.designs)
        self.results: List[Optional[DesignEvaluation]] = [None] * self.total
        self.journal: Optional[CheckpointJournal] = None
        self.queue: Deque[_Chunk] = deque()
        self.chunks: List[_Chunk] = []
        self.n_chunks = 0
        self.attempts: Dict[int, int] = {}
        self.committed: Set[int] = set()
        self.best_tons = math.inf
        self.status: Optional[SiteStatus] = None
        self.quarantined = False
        self.serial_chunks = 0
        self.error: Optional[str] = None
        self.shared: Optional[SharedSiteContext] = None
        self.payload: _ContextPayload = context

    @property
    def active(self) -> bool:
        return self.status is None

    @property
    def done_points(self) -> int:
        return sum(1 for r in self.results if r is not None)

    def remaining_chunks(self) -> List[_Chunk]:
        """Chunks not yet committed, in grid order.

        Filters the *initial* chunk list rather than re-chunking the
        missing indices — re-chunking would renumber the ordinals the
        committed set and fault plans address.
        """
        return [chunk for chunk in self.chunks if chunk[0] not in self.committed]

    def partial_evaluations(self) -> Tuple[DesignEvaluation, ...]:
        return tuple(r for r in self.results if r is not None)


@dataclass(frozen=True)
class _Flight:
    """One chunk in flight on the shared pool."""

    site: str
    ordinal: int
    start: int
    stop: int
    submitted_s: float  # time.monotonic() at submission


def _validated_payload(
    payload: Any, flight: _Flight
) -> Tuple[List[DesignEvaluation], Optional[Dict[str, Any]]]:
    """Shape-check one worker payload against its flight."""
    if not isinstance(payload, tuple) or len(payload) != 4:
        raise ChunkValidationError(
            f"chunk {flight.site}:{flight.ordinal}: payload is "
            f"{type(payload).__name__}, expected a 4-tuple"
        )
    site = payload[0]
    if site != flight.site:
        raise ChunkValidationError(
            f"chunk {flight.site}:{flight.ordinal}: worker reported "
            f"site {site!r}"
        )
    _, evaluations, telemetry = validate_chunk_result(
        tuple(payload[1:]), flight.start, flight.stop - flight.start
    )
    return evaluations, telemetry


class SweepEngine:
    """One dispatch loop for every sweep: chunking, pools, shm, commits.

    The engine is *mechanism*; :func:`~repro.core.sweep_fleet` is the
    policy over it, and :func:`~repro.core.optimize` is a one-site
    fleet.  Every sweep gets round-robin site interleaving, per-site
    fault domains with quarantine, EWMA-adaptive stall budgets, deadline
    budgets, per-chunk events, and per-site terminal events.

    Lifecycle: construct, :meth:`setup` (journals, resume, chunk queues,
    shared segments), :meth:`dispatch` (serial or pooled, plus the
    serial drain), :meth:`cleanup` (always — pool shutdown, segment
    unlink, journal close).

    Construction of :class:`~concurrent.futures.ProcessPoolExecutor`
    and shared-memory segments is legal *only* here and in
    :mod:`repro.core.shm` (lint rule RL008) — the architecture guard
    that keeps a second scheduler from growing back.
    """

    def __init__(
        self,
        sites: Sequence[EngineSite],
        strategy: Strategy,
        *,
        workers: int = 1,
        deadline_s: Optional[float] = None,
        max_retries: int = 2,
        timeout: Optional[AdaptiveChunkTimeout] = None,
        checkpoints: Optional[Mapping[str, Optional[PathLike]]] = None,
        resume: bool = False,
        faults: Optional[FleetFaultPlan] = None,
        shm: bool = True,
        events: Optional[SweepEvents] = None,
        batch_size: Optional[int] = None,
    ) -> None:
        self.strategy = strategy
        self.workers = workers
        self.deadline_s = deadline_s
        self.max_retries = max_retries
        self.timeout = timeout if timeout is not None else AdaptiveChunkTimeout()
        self.checkpoints = dict(checkpoints) if checkpoints else {}
        self.resume = resume
        self.faults = faults
        self.shm = shm
        self.events = events if events is not None else SweepEvents()
        self.batch_size = batch_size
        # Read the sweep's environment knobs once in the parent, so a
        # malformed value fails here rather than inside a pool worker.
        batch_min_rows_override()
        if workers > 1:
            _mp_context()
        self.states: List[SiteRun] = [
            SiteRun(key, context, space, strategy) for key, context, space in sites
        ]
        self._by_key = {state.key: state for state in self.states}
        self._fleet_total = sum(state.total for state in self.states)
        self._deadline_at = (
            None if deadline_s is None else time.monotonic() + deadline_s
        )
        self._payloads: Dict[str, _ContextPayload] = {}
        self._pool: Optional[ProcessPoolExecutor] = None
        self.use_pool = False

    # ------------------------------------------------------------------
    # Public surface
    # ------------------------------------------------------------------

    @property
    def fleet_total(self) -> int:
        """Grid points across every site of the sweep."""
        return self._fleet_total

    def setup(self) -> None:
        """Journals, resume splicing, chunk queues, shared segments."""
        for state in self.states:
            path = self.checkpoints.get(state.key)
            if path is not None:
                fingerprint = sweep_fingerprint(
                    state.context, state.space, self.strategy
                )
                if self.resume:
                    restored = load_resumable_chunks(
                        path,
                        fingerprint,
                        self.strategy,
                        state.total,
                        events=self.events,
                        site=state.key,
                    )
                    for start, evaluations in restored.items():
                        state.results[start : start + len(evaluations)] = evaluations
                state.journal = CheckpointJournal(
                    path,
                    JournalHeader(
                        version=JOURNAL_VERSION,
                        fingerprint=fingerprint,
                        strategy=self.strategy.name,
                        total=state.total,
                    ),
                    truncate=not self.resume,
                )
            # Running best across everything committed so far (seeded with
            # any resumed evaluations) — what frontier_updated compares to.
            state.best_tons = min(
                (r.total_tons for r in state.results if r is not None),
                default=math.inf,
            )
            filled = [r is not None for r in state.results]
            chunk_size = sweep_chunk_size(state.total, self.batch_size)
            state.chunks = _chunk_missing_indices(filled, chunk_size)
            state.queue = deque(state.chunks)
            state.n_chunks = len(state.chunks)
            self.events.emit(
                "sweep_started",
                site=state.key,
                strategy=self.strategy.value,
                total=state.total,
                workers=self.workers,
            )
            if state.n_chunks == 0:
                # Fully restored from its journal: nothing left to sweep.
                self._finalize(state, SiteStatus.COMPLETE)

        # A pool only pays off with more than one chunk to spread over it.
        self.use_pool = (
            self.workers > 1 and sum(state.n_chunks for state in self.states) > 1
        )
        if self.use_pool:
            # Sites restored whole from their journals ship nothing.
            for state in self.states:
                if not state.active:
                    continue
                if self.shm:
                    try:
                        state.shared = share_context(state.context)
                        state.payload = state.shared.handle
                    except SharedContextError as error:
                        _log.warning(
                            "site %s: shared-memory trace plane unavailable "
                            "(%s); pickling its context to workers",
                            state.key,
                            error,
                        )
                self._payloads[state.key] = state.payload
            set_gauge(
                "context_pickle_bytes",
                max(map(handle_pickle_bytes, self._payloads.values())),
            )

    def dispatch(self) -> None:
        """Run the sweep to completion (serial, or pooled plus drain)."""
        if not self.use_pool:
            self._dispatch_serial()
            return
        self._dispatch_pooled()
        self._drain_serial()

    def cleanup(self, interrupted: bool = False) -> None:
        """Tear down every acquired resource; safe after partial setup.

        Runs on completion, exceptions, and interrupts alike: shuts the
        pool down without waiting (a wedged worker must not block the
        caller), unlinks every shared segment, and closes every journal.
        """
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
        for state in self.states:
            if state.shared is not None:
                state.shared.unlink()
            if state.journal is not None:
                state.journal.close()
        if not interrupted:
            remaining = self._remaining_s()
            if remaining is not None:
                set_gauge("fleet_deadline_remaining_s", remaining)

    # ------------------------------------------------------------------
    # Shared plumbing
    # ------------------------------------------------------------------

    def _remaining_s(self) -> Optional[float]:
        if self._deadline_at is None:
            return None
        return max(0.0, self._deadline_at - time.monotonic())

    def _deadline_hit(self) -> bool:
        return self._deadline_at is not None and time.monotonic() >= self._deadline_at

    def _commit(
        self,
        state: SiteRun,
        ordinal: int,
        start: int,
        evaluations: List[DesignEvaluation],
        telemetry: Optional[Dict[str, Any]],
        serial: bool = False,
    ) -> None:
        """Write one completed chunk back: results, journal, events.

        Idempotent per ordinal — a stalled chunk that lands after its
        retry already committed is dropped, so the journal never holds a
        chunk twice and worker telemetry merges exactly once per chunk.
        """
        if ordinal in state.committed or state.status is not None:
            return
        state.committed.add(ordinal)
        if serial:
            state.serial_chunks += 1
        state.results[start : start + len(evaluations)] = evaluations
        if telemetry is not None:
            merge_snapshot(telemetry)
            worker_spans = telemetry.get("spans")
            if worker_spans:
                get_tracer().ingest_spans(worker_spans, pid=telemetry.get("pid", 0))
        if state.journal is not None:
            state.journal.append_chunk(start, evaluations)
        self.events.emit(
            "chunk_completed",
            site=state.key,
            strategy=self.strategy.value,
            start=start,
            count=len(evaluations),
        )
        chunk_best = min(evaluations, key=lambda e: e.total_tons)
        if chunk_best.total_tons < state.best_tons:
            state.best_tons = chunk_best.total_tons
            self.events.emit(
                "frontier_updated",
                site=state.key,
                strategy=self.strategy.value,
                total_tons=chunk_best.total_tons,
                coverage=chunk_best.coverage,
                design=chunk_best.design.describe(),
            )
        if len(state.committed) == state.n_chunks:
            self._finalize(
                state,
                SiteStatus.DEGRADED
                if (state.quarantined or state.serial_chunks)
                else SiteStatus.COMPLETE,
            )

    def _finalize(self, state: SiteRun, status: SiteStatus) -> None:
        """Close a site out; its terminal event fires once.

        A site closed by the deadline has no event of its own: the
        ``deadline_exceeded`` event names it.
        """
        if state.status is not None:
            return
        state.status = status
        if status is not SiteStatus.DEADLINE_EXCEEDED:
            evaluations = state.results
            assert all(e is not None for e in evaluations)
            best = min(evaluations, key=lambda e: e.total_tons)  # type: ignore[union-attr]
            if status is SiteStatus.DEGRADED:
                self.events.emit(
                    "sweep_degraded",
                    site=state.key,
                    strategy=self.strategy.value,
                    serial_chunks=state.serial_chunks,
                    reason=state.error or "quarantined",
                )
            self.events.emit(
                "sweep_finished",
                site=state.key,
                strategy=self.strategy.value,
                total=state.total,
                best_total_tons=best.total_tons,
                best_coverage=best.coverage,
                status=status.value,
            )

    def _quarantine(self, state: SiteRun, reason: str) -> None:
        """Isolate one site's fault domain without killing the sweep."""
        if state.quarantined or state.status is not None:
            return
        state.quarantined = True
        state.error = reason
        self.events.emit(
            "site_quarantined",
            site=state.key,
            strategy=self.strategy.value,
            reason=reason,
            mode="serial",
            committed_chunks=len(state.committed),
            total_chunks=state.n_chunks,
        )

    def _close_deadline(self, active: List[SiteRun]) -> None:
        dropped_chunks = sum(
            state.n_chunks - len(state.committed) for state in active
        )
        self.events.emit(
            "deadline_exceeded",
            strategy=self.strategy.value,
            budget_s=self.deadline_s,
            dropped_chunks=dropped_chunks,
            sites=[state.key for state in active],
        )
        for state in active:
            state.error = state.error or f"deadline of {self.deadline_s}s exceeded"
            self._finalize(state, SiteStatus.DEADLINE_EXCEEDED)

    def _evaluate_in_parent(
        self, state: SiteRun, start: int, stop: int
    ) -> List[DesignEvaluation]:
        with span(
            "evaluate_chunk", site=state.key, start=start, n_designs=stop - start
        ):
            return evaluate_block(
                state.context, state.designs[start:stop], self.strategy
            )

    # ------------------------------------------------------------------
    # Serial dispatch
    # ------------------------------------------------------------------

    def _evaluate_round(
        self, chunks: List[Tuple[SiteRun, int, int, int]]
    ) -> List[List[DesignEvaluation]]:
        """One block-evaluator call for a round's chunks (one per site).

        :func:`evaluate_block_sites` owns the routing: the chunks merge
        into one kernel call once the round reaches the strategy's floor.
        """
        with span(
            "evaluate_round",
            sites=[state.key for state, _, _, _ in chunks],
            n_designs=sum(stop - start for _, _, start, stop in chunks),
        ):
            return evaluate_block_sites(
                [
                    (state.context, state.designs[start:stop])
                    for state, _, start, stop in chunks
                ],
                self.strategy,
            )

    def _dispatch_serial(self) -> None:
        # Fault plans are not applied in-parent — faults fire in pool
        # workers, and the serial path *is* the fault-free oracle the
        # pooled path is tested against.
        #
        # A round is the next chunk of every schedulable site in site
        # order — the round-robin sequence, one lap at a time.  A round
        # of several chunks whose rows merge across sites
        # (:func:`merges_sites`) is evaluated in one call, any other
        # round one chunk at a time; commits stay per chunk in round
        # order, so journals and events match a chunk-at-a-time
        # dispatch.  The deadline is checked per round.
        merge = merges_sites(self.strategy)
        while True:
            sites = [
                state
                for state in self.states
                if state.active and not state.quarantined and state.queue
            ]
            if not sites:
                break
            if self._deadline_hit():
                self._close_deadline([s for s in self.states if s.active])
                break
            chunks = [(state, *state.queue.popleft()) for state in sites]
            if merge and len(chunks) > 1:
                evaluated: Iterable[List[DesignEvaluation]] = self._evaluate_round(
                    chunks
                )
            else:
                # Lazy, so each chunk commits before the next one runs.
                evaluated = (
                    self._evaluate_in_parent(state, start, stop)
                    for state, _, start, stop in chunks
                )
            for (state, ordinal, start, _), evaluations in zip(chunks, evaluated):
                self._commit(state, ordinal, start, evaluations, None)
                remaining = self._remaining_s()
                if remaining is not None:
                    set_gauge("fleet_deadline_remaining_s", remaining)

    # ------------------------------------------------------------------
    # Pooled dispatch
    # ------------------------------------------------------------------

    def _make_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=_init_worker,
            initargs=(self._payloads, metrics_enabled(), tracing_enabled()),
            mp_context=_mp_context(),
        )

    def _fair_grants(self, max_in_flight: int) -> Dict[str, int]:
        """Initial per-site in-flight capacity: an even split, floor 1.

        The floor keeps every site schedulable when there are more sites
        than slots (the global ``max_in_flight`` still bounds actual
        concurrency); the remainder goes to the front of the site list.
        """
        n = len(self.states)
        if n == 1:
            return {self.states[0].key: max_in_flight}
        fair, remainder = divmod(max_in_flight, n)
        return {
            state.key: max(1, fair + (1 if index < remainder else 0))
            for index, state in enumerate(self.states)
        }

    def _steal_capacity(
        self, grants: Dict[str, int], inflight: Dict[str, int]
    ) -> None:
        """Re-grant a drained site's capacity to the largest remaining grid.

        A site whose queue is empty with nothing in flight can never
        receive new work (requeues only originate from its own in-flight
        failures), so its grant is dead weight — transfer it to the
        active site with the most uncommitted grid points.  Each source
        site is drained at most once (its grant drops to zero).
        """
        for state in self.states:
            cap = grants[state.key]
            if cap <= 0 or inflight[state.key] > 0:
                continue
            if state.active and not state.quarantined and state.queue:
                continue
            target: Optional[SiteRun] = None
            target_remaining = 0
            for other in self.states:
                if (
                    other is state
                    or not other.active
                    or other.quarantined
                    or not other.queue
                ):
                    continue
                remaining = other.total - other.done_points
                if remaining > target_remaining:
                    target_remaining = remaining
                    target = other
            if target is None:
                continue
            grants[target.key] += cap
            grants[state.key] = 0
            self.events.emit(
                "capacity_stolen",
                strategy=self.strategy.value,
                from_site=state.key,
                to_site=target.key,
                slots=cap,
            )

    def _next_pooled_site(
        self,
        cursor: int,
        grants: Dict[str, int],
        inflight: Dict[str, int],
    ) -> Tuple[Optional[SiteRun], int]:
        """Round-robin site pick honoring per-site grants."""
        n = len(self.states)
        for step in range(1, n + 1):
            index = (cursor + step) % n
            state = self.states[index]
            if not (state.active and not state.quarantined and state.queue):
                continue
            if inflight[state.key] >= grants[state.key]:
                continue
            return state, index
        return None, cursor

    def _record_failure(self, flight: _Flight, error: BaseException) -> None:
        state = self._by_key[flight.site]
        if state.status is not None or flight.ordinal in state.committed:
            return
        inc("chunk_failures")
        if isinstance(error, SharedContextError):
            # The site's segment is unattachable for every worker; retrying
            # cannot help — isolate the fault domain immediately.
            self._quarantine(state, f"shm attach failed: {error}")
            return
        attempts = state.attempts.get(flight.ordinal, 0) + 1
        state.attempts[flight.ordinal] = attempts
        _log.warning(
            "chunk failed: site=%s chunk=%d [%d:%d) attempt=%d: %s: %s",
            flight.site,
            flight.ordinal,
            flight.start,
            flight.stop,
            attempts,
            type(error).__name__,
            error,
        )
        if attempts > self.max_retries:
            self._quarantine(
                state, f"chunk {flight.ordinal} exhausted {self.max_retries} retries"
            )
            return
        self.events.emit(
            "chunk_retried",
            site=flight.site,
            strategy=self.strategy.value,
            ordinal=flight.ordinal,
            start=flight.start,
            stop=flight.stop,
            attempt=attempts,
        )
        state.queue.append((flight.ordinal, flight.start, flight.stop))

    def _dispatch_pooled(self) -> None:
        """The shared scheduling loop over one long-lived pool.

        A ``BrokenProcessPool`` (a kill fault, a real OOM) is survived by
        failing the in-flight chunks and rebuilding the pool — bounded,
        because every rebuild consumes at least one chunk attempt and
        attempts are capped by ``max_retries``.
        """
        self._pool = self._make_pool()
        flights: Dict[Future, _Flight] = {}
        #: Stalled flights still owed a result: committed if they land
        #: first, ignored otherwise (commit is idempotent per ordinal).
        late: Dict[Future, _Flight] = {}
        max_in_flight = self.workers * _INFLIGHT_PER_WORKER
        grants = self._fair_grants(max_in_flight)
        inflight: Dict[str, int] = {state.key: 0 for state in self.states}
        cursor = -1

        def work_remaining() -> bool:
            if flights:
                return True
            return any(
                state.active and not state.quarantined and state.queue
                for state in self.states
            )

        while work_remaining():
            if self._deadline_hit():
                self._close_deadline([s for s in self.states if s.active])
                break

            if len(self.states) > 1:
                self._steal_capacity(grants, inflight)

            # Top up: interleave sites round-robin so none starves.
            pool_broken = False
            while len(flights) < max_in_flight:
                state, cursor = self._next_pooled_site(cursor, grants, inflight)
                if state is None:
                    break
                ordinal, start, stop = state.queue.popleft()
                if ordinal in state.committed:
                    continue
                fault = (
                    self.faults.action_for(
                        state.key, ordinal, state.attempts.get(ordinal, 0)
                    )
                    if self.faults is not None
                    else None
                )
                try:
                    future = self._pool.submit(
                        _evaluate_chunk,
                        state.key,
                        start,
                        state.designs[start:stop],
                        self.strategy,
                        fault,
                    )
                except BrokenExecutor:
                    # The pool died between completions; put the chunk back
                    # (no attempt consumed — it never ran) and rebuild below.
                    state.queue.appendleft((ordinal, start, stop))
                    pool_broken = True
                    break
                flights[future] = _Flight(
                    site=state.key,
                    ordinal=ordinal,
                    start=start,
                    stop=stop,
                    submitted_s=time.monotonic(),
                )
                inflight[state.key] += 1

            if flights or late:
                done, _ = wait(
                    set(flights) | set(late),
                    timeout=_TICK_S,
                    return_when=FIRST_COMPLETED,
                )
                now = time.monotonic()
                for future in done:
                    if future in late:
                        flight = late.pop(future)
                        state = self._by_key[flight.site]
                        # Already retried when declared stalled: commit the
                        # late result if sound, silently drop it otherwise.
                        if future.cancelled() or future.exception() is not None:
                            continue
                        try:
                            evaluations, telemetry = _validated_payload(
                                future.result(timeout=0), flight
                            )
                        except ChunkValidationError:
                            continue
                        self._commit(
                            state, flight.ordinal, flight.start, evaluations, telemetry
                        )
                        continue
                    flight = flights.pop(future)
                    inflight[flight.site] -= 1
                    state = self._by_key[flight.site]
                    try:
                        # timeout=0 is safe: the future came out of the
                        # wait() done set, so the result is already there.
                        payload = future.result(timeout=0)
                        evaluations, telemetry = _validated_payload(payload, flight)
                    except BrokenExecutor as error:
                        pool_broken = True
                        self._record_failure(flight, error)
                        continue
                    except Exception as error:
                        self._record_failure(flight, error)
                        continue
                    self.timeout.observe(now - flight.submitted_s)
                    self._commit(
                        state, flight.ordinal, flight.start, evaluations, telemetry
                    )

                # Stall detection: an outstanding chunk past the current
                # budget is requeued; its worker may be wedged for good,
                # so the late result is welcome but not waited for.
                budget = self.timeout.budget_s()
                if budget is not None:
                    for future, flight in list(flights.items()):
                        if now - flight.submitted_s <= budget:
                            continue
                        del flights[future]
                        inflight[flight.site] -= 1
                        if not future.cancel():
                            late[future] = flight
                        _log.warning(
                            "chunk stalled: site=%s chunk=%d ran %.2fs "
                            "(budget %.2fs)",
                            flight.site,
                            flight.ordinal,
                            now - flight.submitted_s,
                            budget,
                        )
                        self._record_failure(
                            flight,
                            TimeoutError(
                                f"no result within the {budget:.2f}s stall budget"
                            ),
                        )

            if pool_broken:
                _log.warning(
                    "sweep pool broke; failing %d in-flight chunks and rebuilding",
                    len(flights),
                )
                for future, flight in list(flights.items()):
                    self._record_failure(flight, BrokenExecutor("pool broke mid-flight"))
                flights.clear()
                late.clear()  # old pool's futures can never land
                for key in inflight:
                    inflight[key] = 0
                # wait=True is cheap here — the workers are already dead —
                # and closes the old pool's pipes before its atexit hook
                # can trip over them.
                self._pool.shutdown(wait=True, cancel_futures=True)
                self._pool = self._make_pool()

            remaining = self._remaining_s()
            if remaining is not None:
                set_gauge("fleet_deadline_remaining_s", remaining)

    def _drain_serial(self) -> None:
        """Finish every uncommitted chunk serially in-parent.

        Quarantined-``serial`` sites drain here, so healthy sites kept
        the workers and a sweep always completes.
        """
        for state in self.states:
            if not state.active:
                continue
            for ordinal, start, stop in state.remaining_chunks():
                if self._deadline_hit():
                    self._close_deadline([s for s in self.states if s.active])
                    break
                inc("serial_fallbacks")
                evaluations = self._evaluate_in_parent(state, start, stop)
                self._commit(state, ordinal, start, evaluations, None, serial=True)
            if state.active:  # pragma: no cover - defensive
                self._finalize(state, SiteStatus.DEGRADED)
