"""Observability for the exploration pipeline: tracing, metrics, progress, logging.

Everything here is off by default and built to stay out of the way: the
instrumented library pays one flag check per call site until a caller
opts in.  Three independent facilities:

* :mod:`~repro.obs.trace` — hierarchical spans with wall/CPU timing,
  exportable as a nested span tree or Chrome ``trace_event`` JSON;
* :mod:`~repro.obs.metrics` — a process-wide registry of counters,
  gauges, and histograms with JSON snapshot and text rendering;
* :mod:`~repro.obs.progress` — the CLI's stderr progress ticker, a
  subscriber of the sweep event bus;
* :mod:`~repro.obs.log` — stdlib ``logging`` helpers for the ``repro.*``
  namespace (the library never installs handlers; applications call
  :func:`configure_logging`);
* :mod:`~repro.obs.export` — Prometheus text-format exposition of the
  metrics registry: :func:`render_prometheus`, atomic
  :func:`save_prometheus`, a live ``/metrics`` endpoint
  (:class:`MetricsServer`), and the pure-python
  :func:`validate_exposition` checker;
* :mod:`~repro.obs.events` — the :class:`SweepEvents` bus: typed,
  ordered sweep lifecycle events with a subscribe API and a JSONL
  sink.

See the "Observability" section of README.md for the CLI surface
(``--log-level``, ``--trace-out``, ``--metrics-out``, ``repro stats``).
"""

from .events import (
    EVENTS_FORMAT,
    JsonlSink,
    SweepEvent,
    SweepEvents,
    read_events_jsonl,
)
from .export import (
    MetricsServer,
    render_prometheus,
    save_prometheus,
    start_metrics_server,
    validate_exposition,
)
from .log import LOGGER_NAME, configure_logging, get_logger
from .metric_names import (
    COUNTERS,
    EVENTS,
    GAUGES,
    HISTOGRAM_PATTERNS,
    UnknownMetricError,
    check_metric,
    is_known_metric,
)
from .metrics import (
    BUCKET_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    disable_metrics,
    enable_metrics,
    gauge_value,
    get_registry,
    inc,
    merge_snapshot,
    metrics_enabled,
    metrics_snapshot,
    observe,
    render_metrics,
    reset_metrics,
    save_metrics,
    set_gauge,
)
from .progress import ProgressTicker
from .trace import (
    Span,
    TREE_FORMAT,
    Tracer,
    disable_tracing,
    enable_tracing,
    export_spans,
    get_tracer,
    render_trace,
    reset_tracing,
    save_trace,
    span,
    trace_roots,
    tracing_enabled,
)

__all__ = [
    "LOGGER_NAME",
    "configure_logging",
    "get_logger",
    "EVENTS_FORMAT",
    "JsonlSink",
    "SweepEvent",
    "SweepEvents",
    "read_events_jsonl",
    "MetricsServer",
    "render_prometheus",
    "save_prometheus",
    "start_metrics_server",
    "validate_exposition",
    "BUCKET_BOUNDS",
    "merge_snapshot",
    "export_spans",
    "COUNTERS",
    "EVENTS",
    "GAUGES",
    "HISTOGRAM_PATTERNS",
    "UnknownMetricError",
    "check_metric",
    "is_known_metric",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "disable_metrics",
    "enable_metrics",
    "gauge_value",
    "get_registry",
    "inc",
    "metrics_enabled",
    "metrics_snapshot",
    "observe",
    "render_metrics",
    "reset_metrics",
    "save_metrics",
    "set_gauge",
    "ProgressTicker",
    "Span",
    "TREE_FORMAT",
    "Tracer",
    "disable_tracing",
    "enable_tracing",
    "get_tracer",
    "render_trace",
    "reset_tracing",
    "save_trace",
    "span",
    "trace_roots",
    "tracing_enabled",
]
