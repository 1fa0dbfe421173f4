"""Zero-copy shared-memory trace plane for :class:`SiteContext` fan-out.

A :class:`~repro.core.evaluate.SiteContext` is ~850 KB of pickle, almost all
of it the twelve hourly float64 traces (demand utilization/power, seven
generation fuels, grid demand, curtailment, carbon intensity).  Parallel
sweeps used to ship that pickle to every worker via the pool initializer —
and the resilience layer re-ships it to every *fresh retry-round pool*.
This module instead packs the traces once into a single
``multiprocessing.shared_memory`` segment and hands workers a
:class:`SiteContextHandle`: a few hundred bytes naming the segment plus the
scalar fields.  ``attach()`` maps the segment read-only and rebuilds a
bitwise-identical context whose :class:`~repro.timeseries.HourlySeries`
are zero-copy views over the shared buffer
(:meth:`~repro.timeseries.HourlySeries.from_buffer`).

Segment layout (``n`` = ``calendar.n_hours``, 8-byte float64)::

    +-----------------------------+ offset 0
    | trace 0: n * 8 bytes        |  demand.utilization
    | trace 1: n * 8 bytes        |  demand.power
    | ...                         |  grid.generation[*] (dataset order)
    | trace T-1: n * 8 bytes      |  grid.demand, grid.curtailed,
    |                             |  grid_intensity
    +-----------------------------+ meta_offset = T * n * 8
    | pickled scalar metadata     |  site, fleet, profile, authority,
    | (meta_size bytes)           |  embodied model, fuel order, names
    +-----------------------------+ total size

Lifecycle rules (see DESIGN.md "Shared trace plane"):

* The *creator* (the sweep parent) owns the segment: ``share_context()``
  creates it, and exactly one ``SharedSiteContext.unlink()`` destroys it —
  the optimizer calls it in a ``finally`` so normal completion, exceptions,
  and ``SweepInterrupted`` all release the segment deterministically.
* *Attachers* (pool workers, or the parent in tests) open the segment by
  name and never unlink.  Attached segments are cached per process and the
  backing ``SharedMemory`` object is kept referenced so the numpy views
  stay valid for the worker's lifetime.
* Attaching must not register the segment with the attacher's
  ``resource_tracker`` (a long-standing CPython wart fixed by ``track=``
  in 3.13): otherwise a worker that exits — or is deliberately killed by a
  fault plan — would tear the segment down under the surviving workers and
  spam "leaked shared_memory" warnings.  :func:`_open_untracked` handles
  both interpreter generations.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Tuple

import numpy as np

from ..obs import get_logger, inc
from ..timeseries import HourlySeries, YearCalendar

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (evaluate imports us not)
    from .evaluate import SiteContext

try:  # pragma: no cover - absent only on exotic builds without _posixshmem
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover
    _shared_memory = None  # type: ignore[assignment]

_log = get_logger("core.shm")

_FLOAT_BYTES = 8

#: Prefix for every segment this module creates; tests and CI smoke steps
#: assert ``/dev/shm`` holds nothing matching it after a sweep.
SEGMENT_PREFIX = "repro_ctx_"

_segment_seq = 0

#: Segments this process has attached to, kept referenced so numpy views
#: over their buffers stay valid.  Keyed by segment name.
_attached: Dict[str, object] = {}


class SharedContextError(RuntimeError):
    """Shared-memory trace plane failure (create or attach).

    Raised when a segment cannot be created (platform without POSIX shared
    memory, ``/dev/shm`` exhausted) or a handle names a segment that no
    longer exists (already unlinked by its creator).  The optimizer treats
    a create-side failure as non-fatal and falls back to pickling full
    contexts.
    """


@dataclass(frozen=True)
class SiteContextHandle:
    """Picklable descriptor of a shared :class:`SiteContext` segment.

    A handle is what crosses process boundaries instead of the context
    itself: segment name, trace geometry, and the calendar year.  It
    pickles to a few hundred bytes regardless of trace length.
    """

    segment: str
    year: int
    n_hours: int
    n_traces: int
    meta_offset: int
    meta_size: int

    @property
    def total_bytes(self) -> int:
        """Size of the shared segment this handle describes."""
        return self.meta_offset + self.meta_size

    def attach(self) -> "SiteContext":
        """Re-open the segment and rebuild the context (see :func:`attach_context`)."""
        return attach_context(self)


def _context_traces(context: "SiteContext") -> List[np.ndarray]:
    """The context's hourly traces in canonical segment order."""
    traces = [context.demand.utilization.values, context.demand.power.values]
    traces.extend(series.values for series in context.grid.generation.values())
    traces.append(context.grid.demand.values)
    traces.append(context.grid.curtailed.values)
    traces.append(context.grid_intensity.values)
    return traces


def _context_metadata(context: "SiteContext") -> bytes:
    """Pickle of everything that is not an hourly trace."""
    meta = {
        "site": context.demand.site,
        "fleet": context.demand.fleet,
        "profile": context.demand.profile,
        "authority": context.grid.authority,
        "embodied": context.embodied,
        "sources": list(context.grid.generation.keys()),
        "names": [
            context.demand.utilization.name,
            context.demand.power.name,
            *[s.name for s in context.grid.generation.values()],
            context.grid.demand.name,
            context.grid.curtailed.name,
            context.grid_intensity.name,
        ],
    }
    return pickle.dumps(meta, protocol=pickle.HIGHEST_PROTOCOL)


def _open_untracked(name: str):
    """Attach to an existing segment without resource-tracker registration.

    Python 3.13+ exposes ``track=False`` for exactly this; earlier
    interpreters register every attach with the resource tracker, which
    would unlink the segment when *any* attaching process exits — so there
    the registration is immediately undone.
    """
    try:
        return _shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # track= unknown before 3.13
        pass
    # Pre-3.13: suppress the register call for the duration of the attach.
    # Sending REGISTER and then UNREGISTER instead would race in the
    # tracker process — its per-type cache is a *set*, so two workers
    # attaching the same segment concurrently dedup to one entry and the
    # second UNREGISTER dies with a KeyError in the tracker.
    try:
        from multiprocessing import resource_tracker
    except ImportError:  # pragma: no cover - platforms without a tracker
        return _shared_memory.SharedMemory(name=name)
    original_register = resource_tracker.register

    def _register_ignoring_shm(name: str, rtype: str) -> None:
        if rtype != "shared_memory":
            original_register(name, rtype)

    resource_tracker.register = _register_ignoring_shm
    try:
        return _shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original_register


class SharedSiteContext:
    """Creator-side ownership of one shared context segment.

    Returned by :func:`share_context`; holds the live ``SharedMemory``
    object, the original context, and the :class:`SiteContextHandle` to
    ship to workers.  Exactly one :meth:`unlink` (idempotent) destroys the
    segment; use as a context manager to tie the lifetime to a block.
    """

    __slots__ = ("handle", "context", "_segment")

    def __init__(self, handle: SiteContextHandle, context: "SiteContext", segment) -> None:
        self.handle = handle
        self.context = context
        self._segment = segment

    def unlink(self) -> None:
        """Destroy the segment (idempotent).  Attached views in *this*
        process are dropped from the attach cache so a later
        :func:`attach_context` for the same name fails loudly instead of
        silently reusing stale memory."""
        segment, self._segment = self._segment, None
        if segment is None:
            return
        stale = _attached.pop(self.handle.segment, None)
        if stale is not None and stale is not segment:
            stale.close()  # type: ignore[attr-defined]
        try:
            segment.close()
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass

    def __enter__(self) -> "SharedSiteContext":
        return self

    def __exit__(self, *exc_info) -> None:
        self.unlink()


def shared_memory_available() -> bool:
    """Whether this platform can back the trace plane at all."""
    return _shared_memory is not None


def share_context(context: "SiteContext") -> SharedSiteContext:
    """Pack ``context``'s traces into one shared-memory segment.

    Copies each trace (bitwise, float64) into the segment followed by the
    pickled scalar metadata, and returns the owning
    :class:`SharedSiteContext`.  Increments the ``shm_bytes_shared``
    counter by the segment size.

    Raises
    ------
    SharedContextError
        If shared memory is unavailable or the segment cannot be created;
        callers (the optimizer) fall back to pickling the full context.
    """
    if _shared_memory is None:
        raise SharedContextError("multiprocessing.shared_memory is unavailable")
    global _segment_seq
    traces = _context_traces(context)
    n_hours = context.demand.power.calendar.n_hours
    meta_blob = _context_metadata(context)
    meta_offset = len(traces) * n_hours * _FLOAT_BYTES
    total = meta_offset + len(meta_blob)
    segment = None
    for _ in range(8):  # name collisions with a dead process's leftovers
        _segment_seq += 1
        name = f"{SEGMENT_PREFIX}{os.getpid()}_{_segment_seq}"
        try:
            segment = _shared_memory.SharedMemory(create=True, size=total, name=name)
            break
        except FileExistsError:
            continue
        except OSError as error:
            raise SharedContextError(f"cannot create shared segment: {error}") from error
    if segment is None:  # pragma: no cover - eight consecutive collisions
        raise SharedContextError("could not find a free shared segment name")
    try:
        for index, values in enumerate(traces):
            view = np.ndarray(
                (n_hours,),
                dtype=np.float64,
                buffer=segment.buf,
                offset=index * n_hours * _FLOAT_BYTES,
            )
            view[:] = values
        segment.buf[meta_offset:total] = meta_blob
    except BaseException:
        segment.close()
        segment.unlink()
        raise
    handle = SiteContextHandle(
        segment=segment.name,
        year=context.demand.power.calendar.year,
        n_hours=n_hours,
        n_traces=len(traces),
        meta_offset=meta_offset,
        meta_size=len(meta_blob),
    )
    inc("shm_bytes_shared", total)
    _log.debug(
        "shared context segment %s: %d traces x %d hours + %d meta bytes = %d bytes",
        handle.segment,
        handle.n_traces,
        n_hours,
        len(meta_blob),
        total,
    )
    return SharedSiteContext(handle, context, segment)


def attach_context(handle: SiteContextHandle) -> "SiteContext":
    """Rebuild a bitwise-identical :class:`SiteContext` from a handle.

    Opens the named segment (cached per process; the backing object stays
    referenced so the views outlive this call), wraps each trace in a
    read-only zero-copy :class:`HourlySeries`, and reassembles the demand,
    grid dataset, and context around the pickled scalar metadata.
    Increments the ``context_attach_count`` counter.

    Raises
    ------
    SharedContextError
        If the segment no longer exists — i.e. the creator already
        unlinked it.
    """
    from ..datacenter import DatacenterDemand
    from ..grid import GridDataset
    from .evaluate import SiteContext

    if _shared_memory is None:
        raise SharedContextError("multiprocessing.shared_memory is unavailable")
    segment = _attached.get(handle.segment)
    if segment is None:
        try:
            segment = _open_untracked(handle.segment)
        except FileNotFoundError:
            raise SharedContextError(
                f"shared context segment {handle.segment!r} does not exist "
                "(already unlinked by its creator?)"
            ) from None
        _attached[handle.segment] = segment
    if segment.size < handle.total_bytes:
        raise SharedContextError(
            f"shared context segment {handle.segment!r} is {segment.size} bytes, "
            f"expected at least {handle.total_bytes}"
        )

    calendar = YearCalendar(handle.year)
    meta = pickle.loads(
        bytes(segment.buf[handle.meta_offset : handle.meta_offset + handle.meta_size])
    )
    names = meta["names"]

    def trace(index: int) -> HourlySeries:
        view = np.ndarray(
            (handle.n_hours,),
            dtype=np.float64,
            buffer=segment.buf,
            offset=index * handle.n_hours * _FLOAT_BYTES,
        )
        return HourlySeries.from_buffer(view, calendar, name=names[index])

    sources = meta["sources"]
    generation = {
        source: trace(2 + position) for position, source in enumerate(sources)
    }
    demand = DatacenterDemand(
        site=meta["site"],
        utilization=trace(0),
        power=trace(1),
        fleet=meta["fleet"],
        profile=meta["profile"],
    )
    grid = GridDataset(
        authority=meta["authority"],
        generation=generation,
        demand=trace(2 + len(sources)),
        curtailed=trace(3 + len(sources)),
    )
    context = SiteContext(
        demand=demand,
        grid=grid,
        grid_intensity=trace(4 + len(sources)),
        embodied=meta["embodied"],
    )
    inc("context_attach_count")
    return context


def handle_pickle_bytes(payload: object) -> int:
    """Size of ``payload`` as the pool initializer would pickle it.

    Feeds the ``context_pickle_bytes`` gauge: with the trace plane on this
    is the handle's few hundred bytes; with ``--no-shm`` it is the full
    context pickle.
    """
    return len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
