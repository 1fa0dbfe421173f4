"""Lightweight hierarchical tracing: spans, span trees, Chrome export.

Usage in library code::

    from ..obs import span

    with span("optimize", strategy=strategy.value, site=site):
        ...

Spans nest: a span opened while another is active on the same thread
becomes its child, so a sweep produces an ``optimize`` →
``evaluate_design`` → ``simulate_battery`` tree whose wall-clock and CPU
timings localize where a slow run spends its time.

Tracing is **disabled by default** and engineered to cost almost nothing
that way: the module-level :func:`span` helper checks one flag and
returns a shared no-op context manager — no span object, no clock reads,
no locking.  When enabled, each span records wall time
(``time.perf_counter``) and per-thread CPU time (``time.thread_time``),
and finished spans feed a ``span.<name>.seconds`` histogram in the
metrics registry (when metrics are also enabled).

Finished trees export two ways:

* :meth:`Tracer.to_tree` — a nested JSON-serializable span tree (the
  ``--trace-out`` default);
* :meth:`Tracer.to_chrome_trace` — Chrome ``trace_event`` JSON, loadable
  in ``chrome://tracing`` / Perfetto.

The tracer is thread-safe: each thread keeps its own span stack, so
concurrent sweeps produce parallel root spans instead of corrupting each
other's ancestry.

**Cross-process aggregation.**  A sweep worker's spans would otherwise
die with the worker, so a tracer can :meth:`~Tracer.export_spans` its
finished trees as flat records stamped with *absolute* (unix-epoch)
start times, and a parent tracer :meth:`~Tracer.ingest_spans` them under
the worker's pid.  Chrome export then renders local spans on the parent
pid and every ingested batch on its own pid lane — one Perfetto timeline
for the whole parallel sweep.  Each process anchors ``perf_counter`` to
``time.time`` exactly once per tracer epoch, so lanes line up to within
wall-clock skew (sub-millisecond on one host); span *durations* are
always pure ``perf_counter`` deltas.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Any, Dict, List, Optional, Tuple, Union

from .metrics import observe

PathLike = Union[str, "os.PathLike[str]"]

#: Span-tree export format identifier (bump on incompatible changes).
TREE_FORMAT = "repro-span-tree/1"


class Span:
    """One timed, attributed region of execution."""

    __slots__ = (
        "name",
        "attrs",
        "children",
        "thread_id",
        "start_wall",
        "end_wall",
        "start_cpu",
        "end_cpu",
    )

    def __init__(self, name: str, attrs: Dict[str, Any], thread_id: int) -> None:
        self.name = name
        self.attrs = attrs
        self.children: List["Span"] = []
        self.thread_id = thread_id
        self.start_wall = 0.0
        self.end_wall = 0.0
        self.start_cpu = 0.0
        self.end_cpu = 0.0

    @property
    def wall_s(self) -> float:
        """Elapsed wall-clock seconds."""
        return self.end_wall - self.start_wall

    @property
    def cpu_s(self) -> float:
        """CPU seconds consumed by the owning thread."""
        return self.end_cpu - self.start_cpu

    def to_dict(self) -> Dict[str, Any]:
        """Nested JSON-serializable representation (children included)."""
        return {
            "name": self.name,
            "attrs": self.attrs,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "children": [child.to_dict() for child in self.children],
        }

    def find(self, name: str) -> Optional["Span"]:
        """Depth-first search of this subtree for a span named ``name``."""
        if self.name == name:
            return self
        for child in self.children:
            found = child.find(name)
            if found is not None:
                return found
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, wall={self.wall_s:.6f}s, children={len(self.children)})"


class _NullSpanContext:
    """Shared, stateless no-op context manager for disabled tracing."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: object) -> bool:
        return False


_NULL_SPAN = _NullSpanContext()


class _SpanContext:
    """Context manager that opens a span on enter and closes it on exit."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, Any]) -> None:
        self._tracer = tracer
        self._span = Span(name, attrs, threading.get_ident())

    def __enter__(self) -> Span:
        self._tracer._open(self._span)
        return self._span

    def __exit__(self, *exc_info: object) -> bool:
        self._tracer._close(self._span)
        return False


class Tracer:
    """Collects span trees; one per-thread stack, shared finished roots."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._local = threading.local()
        self._lock = threading.Lock()
        self._roots: List[Span] = []
        #: Foreign (ingested) span records grouped per source pid.
        self._foreign: List[Tuple[int, List[Dict[str, Any]]]] = []
        self._anchor()

    def _anchor(self) -> None:
        """Pin this tracer's epoch on both clocks.

        ``_epoch`` (``perf_counter``) is what local span timestamps are
        relative to; ``_epoch_abs`` (``time.time``) is the same instant
        in unix time, the shared axis that lets spans exported by other
        processes land on this tracer's timeline.
        """
        self._epoch = time.perf_counter()
        self._epoch_abs = time.time()

    # ------------------------------------------------------------------
    # Span lifecycle
    # ------------------------------------------------------------------
    def span(self, name: str, **attrs: Any) -> Union[_SpanContext, _NullSpanContext]:
        """Open a span (``with tracer.span("name", key=value) as s:``).

        Returns the shared no-op context manager when disabled, so the
        disabled cost is a flag check and nothing else.
        """
        if not self.enabled:
            return _NULL_SPAN
        return _SpanContext(self, name, attrs)

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, span: Span) -> None:
        stack = self._stack()
        if stack:
            stack[-1].children.append(span)
        stack.append(span)
        span.start_cpu = time.thread_time()
        span.start_wall = time.perf_counter()

    def _close(self, span: Span) -> None:
        span.end_wall = time.perf_counter()
        span.end_cpu = time.thread_time()
        stack = self._stack()
        # Pop through any spans abandoned by exceptions below us.
        while stack and stack[-1] is not span:
            stack.pop()
        if stack:
            stack.pop()
        if not stack:
            with self._lock:
                self._roots.append(span)
        observe(f"span.{span.name}.seconds", span.wall_s)

    # ------------------------------------------------------------------
    # Reading and exporting
    # ------------------------------------------------------------------
    def roots(self) -> Tuple[Span, ...]:
        """Finished top-level spans, in completion order."""
        with self._lock:
            return tuple(self._roots)

    def find(self, name: str) -> Optional[Span]:
        """First span named ``name`` across all finished trees."""
        for root in self.roots():
            found = root.find(name)
            if found is not None:
                return found
        return None

    def reset(self, drop_open: bool = False) -> None:
        """Drop all finished and ingested spans (open spans unaffected).

        ``drop_open=True`` also discards every thread's open span stack.
        A fork-started worker inherits the parent's stack with the
        sweep's ``optimize`` span still open; anything the worker records
        would nest under that never-closing ghost and never reach
        :meth:`roots`, so worker processes reset with ``drop_open=True``
        before recording.
        """
        with self._lock:
            self._roots.clear()
            self._foreign.clear()
        if drop_open:
            self._local = threading.local()
        self._anchor()

    def to_tree(self) -> Dict[str, Any]:
        """Nested span-tree document (JSON-serializable, local spans only)."""
        return {
            "format": TREE_FORMAT,
            "spans": [root.to_dict() for root in self.roots()],
        }

    # ------------------------------------------------------------------
    # Cross-process span aggregation
    # ------------------------------------------------------------------
    def export_spans(self) -> List[Dict[str, Any]]:
        """Flatten the finished local trees into portable span records.

        Each record carries the span name/attrs, its thread id, its
        *absolute* start time (unix seconds, via this tracer's clock
        anchor), and wall/CPU durations — everything a parent-process
        tracer needs to :meth:`ingest_spans` and re-render them on a
        worker pid lane.  Children follow their parent in the list, so
        nesting survives the flattening (Chrome reconstructs it from the
        overlapping intervals).
        """
        records: List[Dict[str, Any]] = []

        def add(span: Span) -> None:
            records.append(
                {
                    "name": span.name,
                    "attrs": span.attrs,
                    "tid": span.thread_id,
                    "start_s": self._epoch_abs + (span.start_wall - self._epoch),
                    "wall_s": span.wall_s,
                    "cpu_s": span.cpu_s,
                }
            )
            for child in span.children:
                add(child)

        for root in self.roots():
            add(root)
        return records

    def ingest_spans(self, records: List[Dict[str, Any]], pid: int) -> None:
        """Adopt span records exported by another process (no-op when
        disabled — mirrors how a disabled tracer records nothing local).

        ``pid`` labels the Chrome lane the records render on.  Records
        are stored as-is; malformed ones surface at export time.
        """
        if not self.enabled or not records:
            return
        with self._lock:
            self._foreign.append((int(pid), list(records)))

    def foreign_spans(self) -> Tuple[Tuple[int, List[Dict[str, Any]]], ...]:
        """Ingested (pid, records) batches, in ingestion order."""
        with self._lock:
            return tuple((pid, list(records)) for pid, records in self._foreign)

    def to_chrome_trace(self) -> Dict[str, Any]:
        """Chrome ``trace_event`` document for chrome://tracing / Perfetto.

        Local spans render on this process' pid; spans ingested from
        workers render on their own pid lanes, mapped onto this tracer's
        epoch through their absolute start stamps.  ``process_name``
        metadata events label the lanes.
        """
        events: List[Dict[str, Any]] = []
        pid = os.getpid()

        def add(span: Span) -> None:
            events.append(
                {
                    "name": span.name,
                    "ph": "X",
                    "ts": (span.start_wall - self._epoch) * 1e6,
                    "dur": span.wall_s * 1e6,
                    "pid": pid,
                    "tid": span.thread_id,
                    "args": span.attrs,
                }
            )
            for child in span.children:
                add(child)

        for root in self.roots():
            add(root)
        foreign = self.foreign_spans()
        if foreign:
            events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": "sweep parent"},
                }
            )
        named_pids = set()
        for worker_pid, records in foreign:
            if worker_pid not in named_pids:
                named_pids.add(worker_pid)
                events.append(
                    {
                        "name": "process_name",
                        "ph": "M",
                        "pid": worker_pid,
                        "tid": 0,
                        "args": {"name": f"sweep worker {worker_pid}"},
                    }
                )
            for record in records:
                events.append(
                    {
                        "name": str(record["name"]),
                        "ph": "X",
                        "ts": (float(record["start_s"]) - self._epoch_abs) * 1e6,
                        "dur": float(record["wall_s"]) * 1e6,
                        "pid": worker_pid,
                        "tid": int(record["tid"]),
                        "args": dict(record.get("attrs", {})),
                    }
                )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def render_text(self, max_depth: Optional[int] = None) -> str:
        """ASCII tree of the finished spans with wall/CPU timings.

        ``max_depth`` truncates deep trees (1 = roots only); truncated
        levels report how many child spans were elided.
        """
        lines: List[str] = ["== trace =="]

        def add(span: Span, depth: int) -> None:
            indent = "  " * depth
            attrs = ""
            if span.attrs:
                attrs = " [" + " ".join(
                    f"{key}={value}" for key, value in span.attrs.items()
                ) + "]"
            lines.append(
                f"{indent}{span.name}  wall={span.wall_s:.4f}s "
                f"cpu={span.cpu_s:.4f}s{attrs}"
            )
            if max_depth is not None and depth + 1 >= max_depth:
                if span.children:
                    lines.append(f"{indent}  ... {len(span.children)} child span(s)")
                return
            for child in span.children:
                add(child, depth + 1)

        for root in self.roots():
            add(root, 0)
        if len(lines) == 1:
            lines.append("(no spans recorded)")
        return "\n".join(lines)

    def save(self, path: PathLike, fmt: Optional[str] = None) -> None:
        """Write the trace as JSON to ``path``.

        ``fmt`` is ``"tree"`` (nested span tree, the default) or
        ``"chrome"`` (``trace_event`` format).  When omitted, a filename
        containing ``chrome`` (e.g. ``run.chrome.json``) selects the
        Chrome format.
        """
        if fmt is None:
            fmt = "chrome" if "chrome" in os.path.basename(str(path)) else "tree"
        if fmt == "tree":
            document = self.to_tree()
        elif fmt == "chrome":
            document = self.to_chrome_trace()
        else:
            raise ValueError(f"unknown trace format {fmt!r}; use 'tree' or 'chrome'")
        parent = os.path.dirname(str(path))
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2)
            handle.write("\n")


#: The process-wide default tracer; disabled until opted into.
_TRACER = Tracer(enabled=False)


def get_tracer() -> Tracer:
    """The process-wide default tracer the library instruments into."""
    return _TRACER


def span(name: str, **attrs: Any) -> Union[_SpanContext, _NullSpanContext]:
    """Open a span on the default tracer (no-op object when disabled)."""
    if not _TRACER.enabled:
        return _NULL_SPAN
    return _TRACER.span(name, **attrs)


def enable_tracing() -> None:
    """Start recording spans on the default tracer."""
    _TRACER.enabled = True


def disable_tracing() -> None:
    """Stop recording (already finished spans are retained)."""
    _TRACER.enabled = False


def tracing_enabled() -> bool:
    """Whether the default tracer is currently recording."""
    return _TRACER.enabled


def reset_tracing(drop_open: bool = False) -> None:
    """Drop the default tracer's finished spans (see :meth:`Tracer.reset`)."""
    _TRACER.reset(drop_open=drop_open)


def trace_roots() -> Tuple[Span, ...]:
    """Finished top-level spans of the default tracer."""
    return _TRACER.roots()


def export_spans() -> List[Dict[str, Any]]:
    """Portable records of the default tracer's finished spans
    (see :meth:`Tracer.export_spans`)."""
    return _TRACER.export_spans()


def render_trace(max_depth: Optional[int] = None) -> str:
    """ASCII rendering of the default tracer's span trees."""
    return _TRACER.render_text(max_depth=max_depth)


def save_trace(path: PathLike, fmt: Optional[str] = None) -> None:
    """Write the default tracer's spans as JSON (see :meth:`Tracer.save`)."""
    _TRACER.save(path, fmt=fmt)
