"""Checkpoint journal: append-only chunk results with fingerprint validation.

The optimizer journals every completed sweep chunk to a JSON-lines file as
it finishes.  Line 1 is a header binding the journal to one exact sweep —
a SHA-256 *fingerprint* of the site context's hourly traces, the design
space axes, and the strategy — and every further line is one completed
chunk: its starting grid index plus its evaluations, serialized so floats
round-trip bit-for-bit (:mod:`repro.resilience.serialize`).

Resume reads the journal back, refuses a mismatched fingerprint
(:class:`CheckpointMismatchError` — resuming against a different site,
seed, space, or strategy would silently splice incompatible results), and
pre-fills the result grid so only unjournaled indices are re-evaluated.
A truncated final line — the signature of a crash mid-append — is
tolerated and dropped; damage anywhere else raises
:class:`CheckpointError`.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import IO, Any, Dict, List, Optional, Tuple, Union

from ..core.design import DesignSpace, Strategy
from ..core.evaluate import DesignEvaluation, SiteContext
from ..obs import get_logger, inc
from ..obs.events import SweepEvents
from .serialize import evaluation_from_json, evaluation_to_json

_log = get_logger("resilience.checkpoint")

PathLike = Union[str, "os.PathLike[str]"]

#: Journal schema version (bumped on incompatible format changes).
JOURNAL_VERSION = 1


def sweep_journal_path(
    checkpoint: Optional[PathLike], label: str
) -> Optional[str]:
    """Derive one sweep's journal path from a base checkpoint path.

    The single suffix scheme behind every journal layout: a label —
    a strategy name for per-strategy sweeps (``optimize_all_strategies``,
    ``repro optimize --strategy all``) or a site key for fleet sweeps
    (``sweep_fleet``, ``repro rank``) — is lowercased and appended as
    ``<base>.<label>``.  ``None`` passes through, so callers can thread an
    optional checkpoint argument without branching.  Because both layouts
    share this helper (via ``strategy_checkpoint_path`` and
    ``fleet_checkpoint_path``), a fleet journal resumes under a single-site
    sweep and vice versa.
    """
    if checkpoint is None:
        return None
    return f"{checkpoint}.{label.lower()}"


class CheckpointError(ValueError):
    """A checkpoint journal is structurally damaged or unreadable."""


class CheckpointMismatchError(CheckpointError):
    """A journal's fingerprint does not match the sweep being resumed."""


class SweepInterrupted(KeyboardInterrupt):
    """A checkpointed sweep was interrupted; the journal holds partial progress.

    Subclasses :class:`KeyboardInterrupt` so generic ``except Exception``
    handlers cannot swallow it; carries enough state for the CLI to print
    an actionable partial-progress message.
    """

    def __init__(self, checkpoint: str, done: int, total: int, strategy: str) -> None:
        super().__init__()
        self.checkpoint = checkpoint
        self.done = done
        self.total = total
        self.strategy = strategy

    def __str__(self) -> str:
        return (
            f"sweep interrupted: {self.done}/{self.total} evaluations "
            f"({self.strategy}) journaled to {self.checkpoint}"
        )


def _digest(update: "hashlib._Hash", array: Any) -> None:
    update.update(array.tobytes())


def sweep_fingerprint(
    context: SiteContext, space: DesignSpace, strategy: Strategy
) -> str:
    """SHA-256 identity of one sweep: site traces + space axes + strategy.

    Two sweeps share a fingerprint exactly when their journaled chunks are
    interchangeable: same site/year/seed (captured through the hourly
    demand, intensity, solar, and wind traces), same grid axes, same
    strategy.  Anything else must refuse to resume.
    """
    h = hashlib.sha256()
    h.update(f"v{JOURNAL_VERSION}|{context.site_state}|{strategy.name}|".encode())
    _digest(h, context.demand.power.values)
    _digest(h, context.grid_intensity.values)
    _digest(h, context.grid.solar.values)
    _digest(h, context.grid.wind.values)
    axes = {
        "solar_mw": list(space.solar_mw),
        "wind_mw": list(space.wind_mw),
        "battery_mwh": list(space.battery_mwh),
        "extra_capacity_fractions": list(space.extra_capacity_fractions),
        "depth_of_discharge": space.depth_of_discharge,
        "flexible_ratio": space.flexible_ratio,
    }
    h.update(json.dumps(axes, sort_keys=True).encode())
    return h.hexdigest()


@dataclass(frozen=True)
class JournalHeader:
    """The binding line-1 record of a checkpoint journal."""

    version: int
    fingerprint: str
    strategy: str
    total: int

    def as_json(self) -> Dict[str, Any]:
        return {
            "kind": "header",
            "version": self.version,
            "fingerprint": self.fingerprint,
            "strategy": self.strategy,
            "total": self.total,
        }


def _parse_journal(
    path: PathLike,
) -> Tuple[JournalHeader, Dict[int, List[DesignEvaluation]]]:
    """Read a journal file into its header and chunk map.

    Raises :class:`CheckpointError` on structural damage anywhere except a
    truncated final line, which is dropped with a warning (the crash wrote
    half a chunk; that chunk is simply re-evaluated).
    """
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().split("\n")
    while lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise CheckpointError(f"checkpoint {path}: empty file")

    records: List[Dict[str, Any]] = []
    for number, line in enumerate(lines, start=1):
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            if number == len(lines):
                _log.warning(
                    "checkpoint %s: dropping truncated final line %d", path, number
                )
                break
            raise CheckpointError(
                f"checkpoint {path}: line {number} is not valid JSON ({error})"
            ) from None
        if not isinstance(record, dict) or "kind" not in record:
            raise CheckpointError(
                f"checkpoint {path}: line {number} is not a journal record"
            )
        records.append(record)

    if not records or records[0].get("kind") != "header":
        raise CheckpointError(f"checkpoint {path}: missing header line")
    head = records[0]
    try:
        header = JournalHeader(
            version=int(head["version"]),
            fingerprint=str(head["fingerprint"]),
            strategy=str(head["strategy"]),
            total=int(head["total"]),
        )
    except (KeyError, TypeError, ValueError) as error:
        raise CheckpointError(f"checkpoint {path}: damaged header ({error})") from None
    if header.version != JOURNAL_VERSION:
        raise CheckpointError(
            f"checkpoint {path}: journal version {header.version} is not "
            f"supported (expected {JOURNAL_VERSION})"
        )

    chunks: Dict[int, List[DesignEvaluation]] = {}
    for number, record in enumerate(records[1:], start=2):
        if record["kind"] != "chunk":
            raise CheckpointError(
                f"checkpoint {path}: line {number} has unknown kind "
                f"{record['kind']!r}"
            )
        try:
            start = int(record["start"])
            evaluations = [
                evaluation_from_json(item) for item in record["evaluations"]
            ]
        except (KeyError, TypeError, ValueError) as error:
            raise CheckpointError(
                f"checkpoint {path}: line {number} holds a damaged chunk ({error})"
            ) from None
        if start < 0 or start + len(evaluations) > header.total:
            raise CheckpointError(
                f"checkpoint {path}: line {number} chunk [{start}, "
                f"{start + len(evaluations)}) exceeds the sweep total "
                f"{header.total}"
            )
        chunks[start] = evaluations
    return header, chunks


def load_resumable_chunks(
    path: PathLike,
    fingerprint: str,
    strategy: Strategy,
    total: int,
    events: Optional["SweepEvents"] = None,
    site: str = "",
) -> Dict[int, List[DesignEvaluation]]:
    """Journaled chunks safe to splice into the sweep being resumed.

    Returns an empty map when the journal does not exist yet (a first run
    with ``resume=True`` is allowed).  Raises
    :class:`CheckpointMismatchError` when the journal belongs to a
    different sweep, :class:`CheckpointError` on damage.

    ``events``, when given, mirrors every restored journal entry onto the
    bus as a ``chunk_completed`` event tagged ``resumed: true`` (in grid
    order, before the sweep emits any live chunk), so a subscriber sees
    the sweep's complete chunk history whether or not it was interrupted.
    """
    if not os.path.exists(path):
        _log.info("checkpoint %s: no journal yet, starting fresh", path)
        return {}
    header, chunks = _parse_journal(path)
    if header.fingerprint != fingerprint:
        raise CheckpointMismatchError(
            f"checkpoint {path}: fingerprint mismatch — the journal was "
            f"written for a different site/seed/space/strategy "
            f"(journal {header.fingerprint[:12]}…, sweep {fingerprint[:12]}…); "
            f"refusing to resume"
        )
    if header.strategy != strategy.name or header.total != total:
        raise CheckpointMismatchError(
            f"checkpoint {path}: header disagrees with the sweep "
            f"(journal strategy={header.strategy} total={header.total}, "
            f"sweep strategy={strategy.name} total={total})"
        )
    _log.info(
        "checkpoint %s: resuming %d journaled chunks (%d evaluations)",
        path,
        len(chunks),
        sum(len(c) for c in chunks.values()),
    )
    if events is not None:
        for start in sorted(chunks):
            events.emit(
                "chunk_completed",
                site=site,
                strategy=strategy.value,
                start=start,
                count=len(chunks[start]),
                resumed=True,
                journal=str(path),
            )
    return chunks


@dataclass(frozen=True)
class JournalInfo:
    """Inspection summary of one checkpoint journal (``repro journal``).

    ``error`` is set (and the counts zeroed) when the journal is damaged
    beyond the tolerated truncated final line.  ``total`` is the sweep's
    grid size from the header; ``evaluations_done`` counts journaled
    evaluations, so ``complete`` means every grid index is covered and
    the journal is a finished sweep rather than a resumable partial.
    """

    path: str
    version: int = 0
    fingerprint: str = ""
    strategy: str = ""
    total: int = 0
    chunks: int = 0
    evaluations_done: int = 0
    error: Optional[str] = None

    @property
    def complete(self) -> bool:
        """Whether every grid index of the sweep is journaled."""
        return self.error is None and self.total > 0 and self.evaluations_done >= self.total

    def verdict(self) -> str:
        """One-word-ish resumability verdict for the CLI table."""
        if self.error is not None:
            return f"damaged: {self.error}"
        if self.complete:
            return "complete"
        if self.evaluations_done == 0:
            return "empty (header only)"
        return "resumable"


def inspect_journal(path: PathLike) -> JournalInfo:
    """Summarize a journal file without needing its sweep's context.

    Never raises on journal damage — a debugging command must be able to
    describe a broken journal; structural problems land in
    :attr:`JournalInfo.error` instead.  A missing file is reported as
    damage too (``no such file``).
    """
    if not os.path.exists(path):
        return JournalInfo(path=str(path), error="no such file")
    try:
        header, chunks = _parse_journal(path)
    except CheckpointError as error:
        return JournalInfo(path=str(path), error=str(error))
    return JournalInfo(
        path=str(path),
        version=header.version,
        fingerprint=header.fingerprint,
        strategy=header.strategy,
        total=header.total,
        chunks=len(chunks),
        evaluations_done=sum(len(c) for c in chunks.values()),
    )


class CheckpointJournal:
    """Append-only writer for one sweep's checkpoint file.

    Opens lazily.  With ``truncate=True`` (a fresh, non-resumed sweep) any
    existing file is overwritten — appending a second run onto an old
    journal would splice two sweeps together.  With ``truncate=False`` (a
    resumed sweep) the file is opened for append, and the header is only
    written when the file is new or empty.  Each :meth:`append_chunk`
    writes one complete line and flushes it, so a killed process loses at
    most the chunk being written — which the tolerant reader drops on
    resume.
    """

    def __init__(
        self, path: PathLike, header: JournalHeader, truncate: bool = False
    ) -> None:
        self._path = str(path)
        self._header = header
        self._truncate = truncate
        self._handle: Optional[IO[str]] = None

    @property
    def path(self) -> str:
        """Location of the journal file."""
        return self._path

    def _ensure_open(self) -> IO[str]:
        if self._handle is None:
            parent = os.path.dirname(self._path)
            if parent:
                os.makedirs(parent, exist_ok=True)
            fresh = (
                self._truncate
                or not os.path.exists(self._path)
                or os.path.getsize(self._path) == 0
            )
            self._handle = open(self._path, "w" if self._truncate else "a", encoding="utf-8")
            if fresh:
                self._handle.write(json.dumps(self._header.as_json()) + "\n")
                self._handle.flush()
        return self._handle

    def append_chunk(self, start: int, evaluations: List[DesignEvaluation]) -> None:
        """Journal one completed chunk (flushed before returning).

        Counts it in ``checkpoint_chunks_written``: the journal is the one
        owner of that fact.
        """
        record = {
            "kind": "chunk",
            "start": start,
            "evaluations": [evaluation_to_json(e) for e in evaluations],
        }
        handle = self._ensure_open()
        handle.write(json.dumps(record) + "\n")
        handle.flush()
        inc("checkpoint_chunks_written")

    def close(self) -> None:
        """Flush and close the journal (idempotent)."""
        if self._handle is not None:
            self._handle.flush()
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "CheckpointJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
