"""Single source of truth for metric names.

Metrics are created lazily on first write (see
:class:`repro.obs.metrics.MetricsRegistry`), which makes a typo'd name a
silent fork rather than an error.  Every counter and gauge name the
pipeline emits is therefore declared here, checked in, and enforced from
both directions:

* statically — ``repro lint`` (rule RL004) checks every string-literal
  name passed to ``inc``/``set_gauge``/``observe``/``counter_value``
  against this module;
* at runtime — a validating :class:`~repro.obs.metrics.MetricsRegistry`
  raises :class:`UnknownMetricError` when a dynamic (non-literal) name
  slips past the linter.

Histograms are a special case: the only histogram writer is the tracer's
per-span timing (``span.<name>.seconds``), whose names are dynamic by
design, so histograms are validated by the :data:`HISTOGRAM_PATTERNS`
shape instead of an enumerated set.

Adding a metric is a two-line change: emit it at the call site and add
the name to the matching set below.  The lint self-check keeps the two
in sync.
"""

from __future__ import annotations

import re
from typing import FrozenSet, Tuple

#: Every counter name the pipeline may increment.
COUNTERS: FrozenSet[str] = frozenset(
    {
        # scheduling
        "schedules_run",
        "schedule_days",
        "schedule_moved_mwh",
        "schedule_deferrals",
        "forecast_schedules",
        "cas_capacity_probes",
        # combined battery+scheduling simulation
        "combined_sims",
        "combined_sim_hours",
        "combined_deferred_mwh",
        # grid/supply generation
        "grid_datasets_generated",
        # battery simulation
        "battery_runs_seeded",
        "battery_sims",
        "battery_sim_hours",
        "battery_capacity_probes",
        # sweep engine / resilience
        "sweeps_completed",
        "designs_evaluated",
        "designs_batched",
        "chunk_retries",
        "chunk_failures",
        "serial_fallbacks",
        "sites_quarantined",
        "chunks_deadline_dropped",
        "checkpoint_chunks_skipped",
        "checkpoint_designs_skipped",
        "checkpoint_chunks_written",
        # sweep engine / cross-site work stealing
        "capacity_steals",
        # caches
        "supply_cache_hits",
        "supply_cache_misses",
        "battery_seed_cache_hits",
        "battery_seed_cache_misses",
        "site_context_cache_hits",
        "site_context_cache_misses",
        "site_context_cache_evictions",
        # shared-memory trace plane
        "context_attach_count",
        "shm_bytes_shared",
    }
)

#: Every gauge name the pipeline may set.
GAUGES: FrozenSet[str] = frozenset(
    {
        "context_pickle_bytes",
        "sweep_grid_points",
        "batch_rows_peak",
        "fleet_deadline_remaining_s",
    }
)

#: Shapes of dynamically-named histograms (currently only span timings).
HISTOGRAM_PATTERNS: Tuple[re.Pattern, ...] = (
    re.compile(r"^span\.[A-Za-z0-9_.\-]+\.seconds$"),
)

#: Every sweep-event kind the pipeline may emit onto a
#: :class:`repro.obs.events.SweepEvents` bus.  Same single-source pattern
#: as :data:`COUNTERS`: the static RL007 lint rule checks literal kinds in
#: ``emit()`` calls against this set, and a validating bus raises
#: :class:`UnknownMetricError` on dynamic kinds at runtime.
EVENTS: FrozenSet[str] = frozenset(
    {
        "sweep_started",
        "chunk_completed",
        "chunk_retried",
        "frontier_updated",
        "sweep_finished",
        # fleet scheduler (repro.core.fleet / core.engine)
        "site_quarantined",
        "deadline_exceeded",
        "sweep_degraded",
        "capacity_stolen",
    }
)


class UnknownMetricError(KeyError):
    """A metric name was used that is not declared in this module."""

    def __init__(self, kind: str, name: str) -> None:
        super().__init__(name)
        self.kind = kind
        self.name = name

    def __str__(self) -> str:
        return (
            f"unknown {self.kind} metric {self.name!r}; declare it in "
            "repro/obs/metric_names.py (the single source of truth) "
            "or fix the typo"
        )


def is_known_metric(kind: str, name: str) -> bool:
    """Whether ``name`` is a declared metric of ``kind``.

    ``kind`` is one of ``"counter"``, ``"gauge"``, ``"histogram"``,
    ``"event"``.  Unrecognized kinds return ``False`` (there is nothing
    they could legitimately name).
    """
    if kind == "counter":
        return name in COUNTERS
    if kind == "gauge":
        return name in GAUGES
    if kind == "histogram":
        return any(pattern.match(name) for pattern in HISTOGRAM_PATTERNS)
    if kind == "event":
        return name in EVENTS
    return False


def check_metric(kind: str, name: str) -> None:
    """Raise :class:`UnknownMetricError` unless ``name`` is declared."""
    if not is_known_metric(kind, name):
        raise UnknownMetricError(kind, name)
