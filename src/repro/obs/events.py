"""Sweep event bus: typed, ordered, subscribable sweep lifecycle events.

The optimizer narrates a sweep onto a :class:`SweepEvents` bus as it
runs — ``sweep_started``, one ``chunk_completed`` per committed grid
chunk (including chunks restored from a checkpoint journal, mirrored with
``resumed: true``), ``chunk_retried`` per re-submitted parallel chunk,
``frontier_updated`` whenever a committed chunk lowers the best total
carbon seen so far, and ``sweep_finished`` with the optimum.  This is the
streaming substrate for the ROADMAP's cross-site scheduler and
explorer-as-a-service items: anything that wants partial results while a
sweep runs subscribes here instead of polling the journal file.

Guarantees:

* **Typed** — event kinds are declared in
  :data:`repro.obs.metric_names.EVENTS` (one source of truth, enforced
  statically by lint rule RL004 and at runtime by every emit).
* **One emission site per fact** — the sweep counters and gauges
  (``sweeps_completed``, ``chunk_retries``, ``capacity_steals``, …) and
  the sweep log lines derive from the events, in one accounting step
  that :meth:`SweepEvents.emit` runs before the subscribers; the sweep
  code states each fact once, as the event.
* **Ordered** — every event is stamped with a per-bus monotonically
  increasing ``seq`` under one lock, and subscribers are invoked while
  that lock is held, so every subscriber observes the same total order.
  All events are emitted from the sweep's parent process (workers ship
  telemetry back data-plane-side; they never touch the bus), so ``seq``
  order is also emission order.
* **Worker-count independent** — grid chunking is a pure function of the
  grid size (see ``repro.core.optimizer``), so the ``chunk_completed``
  count for a given sweep is identical serial vs. parallel.

Two consumption styles::

    bus = SweepEvents()
    unsubscribe = bus.subscribe(print)          # push: called per event
    optimize(context, space, strategy, events=bus)
    for event in bus.events():                  # batch: after the fact
        ...

Every live consumer is a push subscriber, called synchronously in the
thread that emits: the durable :class:`JsonlSink`, the CLI's
:class:`~repro.obs.ProgressTicker`, and ``repro rank --stream``'s
printer::

    with JsonlSink("events.jsonl") as sink:     # durable: JSONL file
        bus.subscribe(sink)
        optimize(..., events=bus)
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple, Union

from . import metric_names
from .log import get_logger
from .metrics import inc, set_gauge

PathLike = Union[str, "os.PathLike[str]"]

_log = get_logger("obs.events")

#: Event-stream format identifier (first line of a JSONL sink's output).
EVENTS_FORMAT = "repro-sweep-events/1"


@dataclass(frozen=True)
class SweepEvent:
    """One bus event: a kind, a total-order sequence number, a payload."""

    seq: int
    kind: str
    time_s: float
    payload: Dict[str, Any] = field(default_factory=dict)

    def as_json(self) -> Dict[str, Any]:
        """JSON-serializable record (what :class:`JsonlSink` writes)."""
        return {
            "seq": self.seq,
            "kind": self.kind,
            "time_s": self.time_s,
            "payload": self.payload,
        }


#: A push subscriber: called synchronously, in seq order, per event.
EventCallback = Callable[[SweepEvent], None]


#: The kinds the bus logs, at the level each is logged at; the other
#: kinds are too frequent (``chunk_completed``) or restate these.
_LOGGED_KINDS = {
    "sweep_finished": logging.INFO,
    "capacity_stolen": logging.INFO,
    "site_quarantined": logging.WARNING,
    "deadline_exceeded": logging.WARNING,
}


def _account(kind: str, payload: Dict[str, Any]) -> None:
    """Turn one sweep event into its counters, gauges and log line.

    The only place a sweep fact becomes a metric or a log line.  A
    payload field the event lacks counts as zero, so a bare emit is
    legal.
    """
    if kind == "chunk_completed":
        if payload.get("resumed"):
            inc("checkpoint_chunks_skipped")
            inc("checkpoint_designs_skipped", payload.get("count", 0))
    elif kind == "sweep_finished":
        inc("sweeps_completed")
        set_gauge("sweep_grid_points", payload.get("total", 0))
    elif kind == "site_quarantined":
        inc("sites_quarantined")
    elif kind == "deadline_exceeded":
        inc("chunks_deadline_dropped", payload.get("dropped_chunks", 0))
        set_gauge("fleet_deadline_remaining_s", 0.0)
    elif kind == "capacity_stolen":
        inc("capacity_steals")
    elif kind == "chunk_retried":
        inc("chunk_retries")
    level = _LOGGED_KINDS.get(kind)
    if level is not None and _log.isEnabledFor(level):
        fields = " ".join(f"{key}={value}" for key, value in payload.items())
        _log.log(level, "%s %s", kind, fields)


class SweepEvents:
    """A thread-safe, ordered, in-process event bus for sweep telemetry.

    Every emitted kind is checked against
    :data:`repro.obs.metric_names.EVENTS`; an undeclared one raises
    :class:`~repro.obs.metric_names.UnknownMetricError` — the runtime
    backstop behind the static RL004 lint rule.  Each accepted event
    then updates the sweep counters and log (see :func:`_account`)
    before any subscriber sees it.

    Subscribers run synchronously under the bus lock, which is what makes
    the observed order identical for every subscriber; keep callbacks
    cheap (append to a list, write one JSONL line).  A subscriber that
    raises poisons the emitting sweep — deliberately, because silently
    dropping telemetry is how event streams lie.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._seq = 0
        self._events: List[SweepEvent] = []
        self._subscribers: List[EventCallback] = []
        self._closed = False

    # ------------------------------------------------------------------
    # Producing
    # ------------------------------------------------------------------
    def emit(self, kind: str, **payload: Any) -> SweepEvent:
        """Append one event to the bus and fan it out to subscribers.

        Returns the stamped :class:`SweepEvent`.  Raises
        :class:`~repro.obs.metric_names.UnknownMetricError` for an
        undeclared kind, and :class:`RuntimeError` when the bus is
        already closed.
        """
        metric_names.check_metric("event", kind)
        with self._lock:
            if self._closed:
                raise RuntimeError(
                    f"cannot emit {kind!r}: this SweepEvents bus is closed"
                )
            event = SweepEvent(
                seq=self._seq, kind=kind, time_s=time.time(), payload=payload
            )
            self._seq += 1
            self._events.append(event)
            _account(kind, payload)
            for callback in self._subscribers:
                callback(event)
        return event

    def close(self) -> None:
        """Mark the bus finished.

        Idempotent.  Further :meth:`emit` calls raise.
        """
        with self._lock:
            self._closed = True

    # ------------------------------------------------------------------
    # Consuming
    # ------------------------------------------------------------------
    def subscribe(self, callback: EventCallback) -> Callable[[], None]:
        """Register a push subscriber; returns an unsubscribe callable."""
        with self._lock:
            self._subscribers.append(callback)

        def unsubscribe() -> None:
            with self._lock:
                if callback in self._subscribers:
                    self._subscribers.remove(callback)

        return unsubscribe

    def events(self) -> Tuple[SweepEvent, ...]:
        """Every event emitted so far, in seq order."""
        with self._lock:
            return tuple(self._events)

    def counts(self) -> Dict[str, int]:
        """Emitted events tallied by kind (handy for stream assertions)."""
        tally: Dict[str, int] = {}
        for event in self.events():
            tally[event.kind] = tally.get(event.kind, 0) + 1
        return dict(sorted(tally.items()))

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        with self._lock:
            return self._closed


class JsonlSink:
    """A push subscriber that appends events to a JSONL file.

    Line 1 is a format header (``{"format": "repro-sweep-events/1"}``);
    every further line is one :meth:`SweepEvent.as_json` record, written
    and flushed as the event fires so a crashed run still leaves every
    event that was emitted.  Use as a context manager or call
    :meth:`close`.
    """

    def __init__(self, path: PathLike) -> None:
        self._path = str(path)
        parent = os.path.dirname(self._path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._handle = open(self._path, "w", encoding="utf-8")
        self._handle.write(json.dumps({"format": EVENTS_FORMAT}) + "\n")
        self._handle.flush()
        self.events_written = 0

    @property
    def path(self) -> str:
        """Location of the JSONL file."""
        return self._path

    def __call__(self, event: SweepEvent) -> None:
        self._handle.write(json.dumps(event.as_json(), sort_keys=True) + "\n")
        self._handle.flush()
        self.events_written += 1

    def close(self) -> None:
        """Flush and close the file (idempotent)."""
        if not self._handle.closed:
            self._handle.flush()
            self._handle.close()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def read_events_jsonl(path: PathLike) -> List[Dict[str, Any]]:
    """Load a :class:`JsonlSink` file back into event records.

    Validates the format header and returns the event records (header
    excluded).  Raises :class:`ValueError` on a missing/mismatched header
    or an unparseable line — event files are small enough that damage
    should fail loudly, not truncate silently.
    """
    with open(path, "r", encoding="utf-8") as handle:
        lines = [line for line in handle.read().split("\n") if line]
    if not lines:
        raise ValueError(f"events file {path}: empty")
    header = json.loads(lines[0])
    if not isinstance(header, dict) or header.get("format") != EVENTS_FORMAT:
        raise ValueError(
            f"events file {path}: missing/unknown format header "
            f"(expected {EVENTS_FORMAT!r})"
        )
    records: List[Dict[str, Any]] = []
    for number, line in enumerate(lines[1:], start=2):
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            raise ValueError(
                f"events file {path}: line {number} is not valid JSON "
                f"({error})"
            ) from None
        if not isinstance(record, dict) or "kind" not in record:
            raise ValueError(
                f"events file {path}: line {number} is not an event record"
            )
        records.append(record)
    return records
