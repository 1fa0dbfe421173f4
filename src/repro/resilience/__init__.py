"""Fault tolerance for design sweeps: checkpoints, fault domains, fault injection.

Production-scale sweeps run minutes-to-hours across worker pools and must
survive worker crashes, be interruptible, and resume without redoing
work.  This package supplies the pieces the sweep engine
(:mod:`repro.core.engine`) threads through every sweep:

* :mod:`~repro.resilience.domains` — :class:`AdaptiveChunkTimeout`, the
  EWMA stall budget, and :class:`FleetFaultPlan`, deterministic fault
  injection by site, chunk ordinal and attempt, which tests and CI use
  to prove the rest end-to-end (chunk retries and per-site quarantine
  live in the engine);
* :mod:`~repro.resilience.checkpoint` — an append-only JSONL journal of
  completed chunks with SHA-256 fingerprint validation
  (:func:`sweep_fingerprint`), exact float round-tripping, and tolerant
  recovery of crash-truncated files;
* :mod:`~repro.resilience.faults` — the worker side of an injected
  fault: kills, delays and payload corruption.

Counters surfaced through :mod:`repro.obs`: ``chunk_retries``,
``chunk_failures``, ``serial_fallbacks``, ``checkpoint_chunks_written``,
``checkpoint_chunks_skipped``, ``checkpoint_designs_skipped``.
"""

from .checkpoint import (
    JOURNAL_VERSION,
    CheckpointError,
    CheckpointJournal,
    CheckpointMismatchError,
    JournalHeader,
    JournalInfo,
    SweepInterrupted,
    inspect_journal,
    load_resumable_chunks,
    sweep_fingerprint,
)
from .domains import (
    AdaptiveChunkTimeout,
    FleetFaultPlan,
    SiteFaultPolicy,
)
from .faults import (
    FaultAction,
    FaultKind,
    corrupt_payload,
    execute_pre_fault,
)
from .serialize import (
    design_from_json,
    design_to_json,
    evaluation_from_json,
    evaluation_to_json,
)
from .validate import ChunkResult, ChunkValidationError, validate_chunk_result

__all__ = [
    "JOURNAL_VERSION",
    "CheckpointError",
    "CheckpointJournal",
    "CheckpointMismatchError",
    "JournalHeader",
    "JournalInfo",
    "SweepInterrupted",
    "inspect_journal",
    "load_resumable_chunks",
    "sweep_fingerprint",
    "AdaptiveChunkTimeout",
    "FleetFaultPlan",
    "SiteFaultPolicy",
    "FaultAction",
    "FaultKind",
    "corrupt_payload",
    "execute_pre_fault",
    "design_from_json",
    "design_to_json",
    "evaluation_from_json",
    "evaluation_to_json",
    "ChunkResult",
    "ChunkValidationError",
    "validate_chunk_result",
]
