"""Prometheus text-format exposition of the metrics registry.

Three export surfaces over one renderer:

* :func:`render_prometheus` — the registry snapshot as Prometheus
  text-format 0.0.4 (``# HELP``/``# TYPE`` per family, counters as
  ``<name>_total``, histograms with cumulative buckets plus ``_sum`` and
  ``_count``);
* :func:`save_prometheus` — atomic snapshot-to-file export (write to a
  temp file, ``os.replace`` into place) so a node-exporter textfile
  collector can scrape the artifact without ever seeing a torn write;
* :class:`MetricsServer` / :func:`start_metrics_server` — a stdlib
  ``http.server`` thread serving ``GET /metrics`` from the default
  registry, wired to the CLI's ``--metrics-port`` flag so a running
  ``optimize``/``rank`` sweep is scrapeable live.

:func:`validate_exposition` is a pure-python checker for the exposition
format (HELP/TYPE ordering, family contiguity, label escaping, monotone
cumulative buckets, ``_count``/``+Inf`` agreement) used by the test suite
and by CI (``python -m repro.obs FILE``) to gate what this module
renders — the golden file can rot, the validator's rules cannot.

Metric names are mapped into the Prometheus namespace by prefixing
``repro_`` and replacing every character outside ``[a-zA-Z0-9_:]`` with
``_`` (``span.optimize.seconds`` → ``repro_span_optimize_seconds``).
"""

from __future__ import annotations

import math
import os
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple, Union

from .log import get_logger
from .metrics import BUCKET_BOUNDS, metrics_snapshot

PathLike = Union[str, "os.PathLike[str]"]

_log = get_logger("obs.export")

#: Content type of the text exposition format (what Prometheus expects).
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Namespace prefixed onto every exported metric name.
NAMESPACE = "repro"

_INVALID_NAME_CHARS = re.compile(r"[^a-zA-Z0-9_:]")


def prometheus_name(name: str) -> str:
    """Map a registry metric name into the exported Prometheus name."""
    return f"{NAMESPACE}_{_INVALID_NAME_CHARS.sub('_', name)}"


def _format_value(value: float) -> str:
    """Render a sample value (integral floats as integers, else repr)."""
    if isinstance(value, bool):  # pragma: no cover - never stored
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    if float(value).is_integer() and abs(value) < 2**53:
        return str(int(value))
    return repr(float(value))


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _histogram_lines(name: str, stats: Dict[str, Any]) -> List[str]:
    """One histogram family: cumulative buckets, ``_sum``, ``_count``.

    The snapshot's sparse ``buckets`` dict (``le``-bound key → per-bucket
    count) is re-expanded over the full shared :data:`BUCKET_BOUNDS` axis
    and accumulated, because Prometheus buckets are cumulative.
    """
    sparse = {str(key): int(count) for key, count in stats["buckets"].items()}
    lines = [
        f"# HELP {name} Histogram of the repro.obs metrics registry.",
        f"# TYPE {name} histogram",
    ]
    cumulative = 0
    for bound in BUCKET_BOUNDS:
        cumulative += sparse.get(f"{bound:.6g}", 0)
        lines.append(f'{name}_bucket{{le="{bound:.6g}"}} {cumulative}')
    cumulative += sparse.get("inf", 0)
    lines.append(f'{name}_bucket{{le="+Inf"}} {cumulative}')
    lines.append(f"{name}_sum {_format_value(float(stats['sum']))}")
    lines.append(f"{name}_count {int(stats['count'])}")
    return lines


def render_prometheus(snapshot: Optional[Dict[str, Any]] = None) -> str:
    """Render a metrics snapshot as Prometheus text-format 0.0.4.

    ``snapshot`` defaults to the live default registry
    (:func:`repro.obs.metrics.metrics_snapshot`); any snapshot-shaped
    dict — e.g. one loaded back from a ``--metrics-out`` JSON file or a
    ``benchmarks/out/*.json`` artifact — renders identically.  Families
    are emitted counters → gauges → histograms, each kind sorted by name,
    so the output is deterministic for a given snapshot.
    """
    if snapshot is None:
        snapshot = metrics_snapshot()
    lines: List[str] = []
    for name, value in sorted(snapshot.get("counters", {}).items()):
        exported = f"{prometheus_name(name)}_total"
        lines.append(
            f"# HELP {exported} "
            f"{_escape_help(f'Counter {name} of the repro.obs metrics registry.')}"
        )
        lines.append(f"# TYPE {exported} counter")
        lines.append(f"{exported} {_format_value(value)}")
    for name, value in sorted(snapshot.get("gauges", {}).items()):
        exported = prometheus_name(name)
        lines.append(
            f"# HELP {exported} "
            f"{_escape_help(f'Gauge {name} of the repro.obs metrics registry.')}"
        )
        lines.append(f"# TYPE {exported} gauge")
        lines.append(f"{exported} {_format_value(value)}")
    for name, stats in sorted(snapshot.get("histograms", {}).items()):
        lines.extend(_histogram_lines(prometheus_name(name), stats))
    return "\n".join(lines) + "\n" if lines else ""


def save_prometheus(
    path: PathLike, snapshot: Optional[Dict[str, Any]] = None
) -> None:
    """Atomically write the exposition text to ``path``.

    The rendering is written to ``<path>.tmp.<pid>`` in the same
    directory and moved into place with ``os.replace``, so a concurrent
    scraper (node-exporter textfile collector, ``cat`` in a loop) sees
    either the previous complete file or the new complete file — never a
    partial write.
    """
    target = str(path)
    parent = os.path.dirname(target)
    if parent:
        os.makedirs(parent, exist_ok=True)
    tmp = f"{target}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(render_prometheus(snapshot))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


# ----------------------------------------------------------------------
# Exposition-format validator (pure python, used by tests and CI)
# ----------------------------------------------------------------------

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>\S+)(?:\s+(?P<timestamp>-?\d+))?\s*$"
)
_VALID_TYPES = frozenset(
    {"counter", "gauge", "histogram", "summary", "untyped"}
)

#: Sample-name suffixes each complex type may emit beyond the bare name.
_TYPE_SUFFIXES = {
    "histogram": ("_bucket", "_sum", "_count"),
    "summary": ("_sum", "_count"),
}


def _parse_labels(raw: str) -> Optional[List[Tuple[str, str]]]:
    """Parse ``k="v",k2="v2"`` label bodies; ``None`` on any syntax error.

    Escapes inside values are restricted to ``\\\\``, ``\\"`` and
    ``\\n`` — anything else is a syntax error, which is exactly the
    "label escaping" class of bug this validator exists to catch.
    """
    labels: List[Tuple[str, str]] = []
    index = 0
    length = len(raw)
    while index < length:
        equals = raw.find('="', index)
        if equals < 0:
            return None
        name = raw[index:equals]
        if not _LABEL_NAME_RE.match(name):
            return None
        index = equals + 2
        value_chars: List[str] = []
        closed = False
        while index < length:
            char = raw[index]
            if char == "\\":
                if index + 1 >= length or raw[index + 1] not in ('\\', '"', "n"):
                    return None
                value_chars.append(raw[index : index + 2])
                index += 2
                continue
            if char == '"':
                closed = True
                index += 1
                break
            value_chars.append(char)
            index += 1
        if not closed:
            return None
        labels.append((name, "".join(value_chars)))
        if index < length:
            if raw[index] != ",":
                return None
            index += 1
    return labels


def _family_of(sample_name: str, types: Dict[str, str]) -> str:
    """The family a sample belongs to, honouring typed suffixes."""
    for family, declared in types.items():
        if sample_name == family:
            return family
        for suffix in _TYPE_SUFFIXES.get(declared, ()):
            if sample_name == family + suffix:
                return family
    return sample_name


def _parse_float(text: str) -> Optional[float]:
    try:
        return float(text)
    except ValueError:
        return None


def validate_exposition(text: str) -> List[str]:
    """Check Prometheus text-format 0.0.4 exposition; return problem list.

    An empty return value means the document is valid.  Enforced rules:

    * ``# HELP``/``# TYPE`` lines carry valid metric names; at most one of
      each per family; both precede the family's first sample; ``TYPE``
      is a known type.
    * Samples parse (name, optional ``{labels}``, float value, optional
      timestamp); label names are valid and label values use only the
      ``\\\\``/``\\"``/``\\n`` escapes; no duplicate (name, labels) sample.
    * Families are contiguous — samples of one family never interleave
      with another's.
    * Counter families' samples end in ``_total``.
    * Histogram families: every ``_bucket`` sample carries exactly one
      ``le`` label, ``le`` values are parseable and strictly increasing,
      cumulative counts are non-decreasing, the ``+Inf`` bucket exists,
      and ``_count`` equals the ``+Inf`` bucket's value; ``_sum`` and
      ``_count`` are present.
    """
    problems: List[str] = []
    helps: Dict[str, int] = {}
    types: Dict[str, str] = {}
    seen_samples: set = set()
    family_order: List[str] = []
    finished_families: set = set()
    current_family: Optional[str] = None
    histograms: Dict[str, Dict[str, Any]] = {}

    def switch_family(family: str, line_no: int) -> None:
        nonlocal current_family
        if family == current_family:
            return
        if current_family is not None:
            finished_families.add(current_family)
        if family in finished_families:
            problems.append(
                f"line {line_no}: family {family!r} interleaved with other "
                "families (exposition requires contiguous families)"
            )
        current_family = family
        family_order.append(family)

    lines = text.split("\n")
    for line_no, line in enumerate(lines, start=1):
        if line == "":
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 2 and parts[1] in ("HELP", "TYPE"):
                if len(parts) < 3:
                    problems.append(f"line {line_no}: malformed {parts[1]} line")
                    continue
                name = parts[2]
                if not _NAME_RE.match(name):
                    problems.append(
                        f"line {line_no}: invalid metric name {name!r}"
                    )
                    continue
                if parts[1] == "HELP":
                    if name in helps:
                        problems.append(
                            f"line {line_no}: duplicate HELP for {name!r}"
                        )
                    if name in types or name in finished_families or (
                        current_family == name
                    ):
                        problems.append(
                            f"line {line_no}: HELP for {name!r} must precede "
                            "its TYPE and samples"
                        )
                    helps[name] = line_no
                else:
                    declared = parts[3].strip() if len(parts) > 3 else ""
                    if declared not in _VALID_TYPES:
                        problems.append(
                            f"line {line_no}: unknown TYPE {declared!r} "
                            f"for {name!r}"
                        )
                    if name in types:
                        problems.append(
                            f"line {line_no}: duplicate TYPE for {name!r}"
                        )
                    if name in finished_families or current_family == name:
                        problems.append(
                            f"line {line_no}: TYPE for {name!r} must precede "
                            "its samples"
                        )
                    types[name] = declared
            # Other comment lines are free-form and legal.
            continue

        match = _SAMPLE_RE.match(line)
        if not match:
            problems.append(f"line {line_no}: unparseable sample line {line!r}")
            continue
        name = match.group("name")
        raw_labels = match.group("labels")
        labels = _parse_labels(raw_labels) if raw_labels is not None else []
        if labels is None:
            problems.append(
                f"line {line_no}: bad label syntax/escaping in {line!r}"
            )
            continue
        value = _parse_float(match.group("value"))
        if value is None:
            problems.append(
                f"line {line_no}: unparseable sample value "
                f"{match.group('value')!r}"
            )
            continue
        sample_key = (name, tuple(sorted(labels)))
        if sample_key in seen_samples:
            problems.append(
                f"line {line_no}: duplicate sample {name}{dict(labels)}"
            )
        seen_samples.add(sample_key)

        family = _family_of(name, types)
        switch_family(family, line_no)
        declared = types.get(family)
        if declared == "counter" and not name.endswith("_total"):
            problems.append(
                f"line {line_no}: counter sample {name!r} must end in "
                "'_total'"
            )
        if declared == "histogram":
            state = histograms.setdefault(
                family,
                {"last_le": None, "last_cum": None, "has_inf": False,
                 "inf_value": None, "sum": False, "count": None},
            )
            if name == f"{family}_bucket":
                label_names = [label_name for label_name, _ in labels]
                if label_names != ["le"]:
                    problems.append(
                        f"line {line_no}: histogram bucket must carry "
                        f"exactly the 'le' label, got {label_names}"
                    )
                    continue
                le_text = labels[0][1]
                le = _parse_float(le_text)
                if le is None:
                    problems.append(
                        f"line {line_no}: unparseable le bound {le_text!r}"
                    )
                    continue
                if state["last_le"] is not None and not le > state["last_le"]:
                    problems.append(
                        f"line {line_no}: histogram {family!r} le bounds "
                        f"not strictly increasing ({le_text!r})"
                    )
                if state["last_cum"] is not None and value < state["last_cum"]:
                    problems.append(
                        f"line {line_no}: histogram {family!r} cumulative "
                        f"bucket counts decreased at le={le_text!r}"
                    )
                state["last_le"] = le
                state["last_cum"] = value
                if math.isinf(le) and le > 0:
                    state["has_inf"] = True
                    state["inf_value"] = value
            elif name == f"{family}_sum":
                state["sum"] = True
            elif name == f"{family}_count":
                state["count"] = value

    for family, state in histograms.items():
        if not state["has_inf"]:
            problems.append(f"histogram {family!r}: missing '+Inf' bucket")
        if not state["sum"]:
            problems.append(f"histogram {family!r}: missing '_sum' sample")
        if state["count"] is None:
            problems.append(f"histogram {family!r}: missing '_count' sample")
        elif state["inf_value"] is not None and state["count"] != state["inf_value"]:
            problems.append(
                f"histogram {family!r}: _count ({state['count']:g}) disagrees "
                f"with the '+Inf' bucket ({state['inf_value']:g})"
            )
    return problems


# ----------------------------------------------------------------------
# Live /metrics endpoint
# ----------------------------------------------------------------------


class _MetricsHandler(BaseHTTPRequestHandler):
    """Serves ``GET /metrics`` from the default registry."""

    server_version = "repro-metrics/1"

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        path = self.path.split("?", 1)[0]
        if path == "/metrics":
            body = render_prometheus().encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", CONTENT_TYPE)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        elif path == "/":
            body = b"repro metrics exporter; scrape /metrics\n"
            self.send_response(200)
            self.send_header("Content-Type", "text/plain; charset=utf-8")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        else:
            self.send_error(404, "unknown path (scrape /metrics)")

    def log_message(self, format: str, *args: Any) -> None:
        _log.debug("metrics server: " + format, *args)


class MetricsServer:
    """A background ``/metrics`` endpoint over the default registry.

    Binds on construction (``port=0`` picks a free port — tests use
    this), serves from a daemon thread after :meth:`start`, and is fully
    torn down by :meth:`close` (idempotent).  Usable as a context
    manager.
    """

    def __init__(self, port: int = 0, host: str = "127.0.0.1") -> None:
        self._server = ThreadingHTTPServer((host, port), _MetricsHandler)
        self._server.daemon_threads = True
        self._thread: Optional[threading.Thread] = None
        self.host = self._server.server_address[0]
        self.port = self._server.server_address[1]

    @property
    def url(self) -> str:
        """The scrape URL of this endpoint."""
        return f"http://{self.host}:{self.port}/metrics"

    def start(self) -> "MetricsServer":
        """Begin serving in a daemon thread (idempotent)."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._server.serve_forever,
                name=f"repro-metrics-{self.port}",
                daemon=True,
            )
            self._thread.start()
            _log.info("serving /metrics on %s", self.url)
        return self

    def close(self) -> None:
        """Stop serving and release the socket (idempotent)."""
        if self._thread is not None:
            self._server.shutdown()
            self._thread.join(timeout=5.0)
            self._thread = None
        self._server.server_close()

    def __enter__(self) -> "MetricsServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def start_metrics_server(port: int, host: str = "127.0.0.1") -> MetricsServer:
    """Bind and start a :class:`MetricsServer` (``port=0`` = ephemeral).

    Raises ``OSError`` when the port cannot be bound — callers surface
    that instead of silently running without the endpoint.
    """
    return MetricsServer(port=port, host=host).start()
