"""Process-wide metrics: counters, gauges, and histograms.

A :class:`MetricsRegistry` names and aggregates three metric kinds:

* **counters** — monotonically increasing totals (``designs_evaluated``,
  ``battery_sim_hours``);
* **gauges** — last-written values (``sweep_grid_points``);
* **histograms** — distributions over observed values with log-spaced
  buckets (span durations, per-sweep move totals).

The module-level default registry is what the instrumented library code
writes to through :func:`inc` / :func:`set_gauge` / :func:`observe`.  It is
**disabled by default**: every helper's first action is a single flag
check, so an un-instrumented run pays one attribute load and branch per
call site — nothing is allocated, named, or locked.  Enable collection
with :func:`enable_metrics`, read it back with :func:`metrics_snapshot`
(a plain JSON-serializable dict) or :func:`render_metrics` (aligned
text), and clear it with :func:`reset_metrics`.

All mutation goes through one lock per registry, so concurrent sweeps
(threaded callers) aggregate correctly; the instrumented call sites are
per-simulation, not per-simulated-hour, so the lock is cold.
"""

from __future__ import annotations

import bisect
import json
import math
import os
import threading
from typing import Any, Dict, List, Union

from . import metric_names

PathLike = Union[str, "os.PathLike[str]"]

#: Upper bucket bounds for histograms: half-decade log spacing covering
#: microseconds to megaseconds (durations) and unit-scale quantities.
#: Shared by every histogram, which is what makes cross-process merging
#: (:meth:`Histogram.merge_json`) and Prometheus exposition
#: (:mod:`repro.obs.export`) a straight bucket-by-bucket sum.
BUCKET_BOUNDS: List[float] = [
    10.0 ** (exponent / 2.0) for exponent in range(-12, 13)
]

_BUCKET_BOUNDS = BUCKET_BOUNDS

#: Snapshot bucket keys (the ``le`` bound rendered with ``%.6g``) mapped
#: back to their bucket index — the decoder for :meth:`Histogram.as_json`'s
#: sparse ``buckets`` dict.
_BOUND_KEY_TO_INDEX: Dict[str, int] = {
    f"{bound:.6g}": index for index, bound in enumerate(BUCKET_BOUNDS)
}
_BOUND_KEY_TO_INDEX["inf"] = len(BUCKET_BOUNDS)


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def as_json(self) -> float:
        """Snapshot value (int when the total is integral)."""
        return int(self.value) if self.value.is_integer() else self.value


class Gauge:
    """A last-written value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def as_json(self) -> float:
        return self.value


class Histogram:
    """A distribution over observed values with fixed log-spaced buckets."""

    __slots__ = ("name", "count", "total", "min", "max", "bucket_counts")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        # One count per bound plus an overflow bucket.
        self.bucket_counts = [0] * (len(_BUCKET_BOUNDS) + 1)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.bucket_counts[bisect.bisect_left(_BUCKET_BOUNDS, value)] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (``0 <= q <= 1``) from the buckets.

        Standard bucketed-histogram estimation (what Prometheus'
        ``histogram_quantile`` computes): find the bucket holding the
        ``q * count``-th observation and interpolate linearly inside it,
        then clamp to the exactly-tracked observed ``[min, max]`` so
        estimates never exceed the data.  Returns ``nan`` for an empty
        histogram.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return math.nan
        target = q * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.bucket_counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= target:
                lower = BUCKET_BOUNDS[index - 1] if index > 0 else 0.0
                upper = (
                    BUCKET_BOUNDS[index]
                    if index < len(BUCKET_BOUNDS)
                    else self.max
                )
                fraction = (target - cumulative) / bucket_count
                estimate = lower + (upper - lower) * max(fraction, 0.0)
                return min(max(estimate, self.min), self.max)
            cumulative += bucket_count
        return self.max  # pragma: no cover - target <= count always lands

    def merge_json(self, stats: Dict[str, Any]) -> None:
        """Fold an :meth:`as_json` snapshot from another registry into this
        histogram — how worker-process span/distribution data is made
        exact across a parallel sweep (bucket counts are additive because
        every histogram shares :data:`BUCKET_BOUNDS`).

        Raises
        ------
        ValueError
            If the snapshot references a bucket bound this build does not
            have (a snapshot from an incompatible version).
        """
        count = int(stats.get("count", 0))
        if count == 0:
            return
        self.count += count
        self.total += float(stats.get("sum", 0.0))
        low = stats.get("min")
        high = stats.get("max")
        if low is not None and low < self.min:
            self.min = low
        if high is not None and high > self.max:
            self.max = high
        for key, bucket_count in stats.get("buckets", {}).items():
            index = _BOUND_KEY_TO_INDEX.get(str(key))
            if index is None:
                raise ValueError(
                    f"histogram {self.name!r}: snapshot bucket bound {key!r} "
                    "does not match this build's BUCKET_BOUNDS"
                )
            self.bucket_counts[index] += int(bucket_count)

    def as_json(self) -> Dict[str, Any]:
        """Snapshot including only non-empty buckets (keyed by ``le`` bound)."""
        buckets: Dict[str, int] = {}
        for index, count in enumerate(self.bucket_counts):
            if count == 0:
                continue
            bound = (
                f"{_BUCKET_BOUNDS[index]:.6g}"
                if index < len(_BUCKET_BOUNDS)
                else "inf"
            )
            buckets[bound] = count
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "mean": self.mean if self.count else None,
            "buckets": buckets,
        }


class MetricsRegistry:
    """A named collection of counters, gauges, and histograms.

    Thread-safe; metric objects are created lazily on first write.  The
    module-level default registry backs the convenience functions below,
    but independent registries can be instantiated freely (tests do).

    With ``validate=True`` every lazily created metric's name is checked
    against :mod:`repro.obs.metric_names` and an unknown name raises
    :class:`~repro.obs.metric_names.UnknownMetricError` — the runtime
    backstop behind the static RL004 lint rule, catching dynamic names
    the linter cannot see.  The default registry validates; ad-hoc
    instances (tests, scratch measurements) default to ``False``.
    Validation happens only at creation time while enabled, so the
    disabled fast path still pays one flag check and nothing else.
    """

    def __init__(self, enabled: bool = True, validate: bool = False) -> None:
        self.enabled = enabled
        self.validate = validate
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def inc(self, name: str, amount: float = 1.0) -> None:
        """Add ``amount`` to counter ``name`` (created at 0 on first use)."""
        if not self.enabled:
            return
        with self._lock:
            counter = self._counters.get(name)
            if counter is None:
                if self.validate:
                    metric_names.check_metric("counter", name)
                counter = self._counters[name] = Counter(name)
            counter.value += amount

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value``."""
        if not self.enabled:
            return
        with self._lock:
            gauge = self._gauges.get(name)
            if gauge is None:
                if self.validate:
                    metric_names.check_metric("gauge", name)
                gauge = self._gauges[name] = Gauge(name)
            gauge.value = value

    def observe(self, name: str, value: float) -> None:
        """Record ``value`` into histogram ``name``."""
        if not self.enabled:
            return
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                if self.validate:
                    metric_names.check_metric("histogram", name)
                histogram = self._histograms[name] = Histogram(name)
            histogram.observe(value)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def counter_value(self, name: str) -> float:
        """Current value of a counter (0 if it never fired)."""
        with self._lock:
            counter = self._counters.get(name)
            return counter.value if counter is not None else 0.0

    def gauge_value(self, name: str) -> float:
        """Current value of a gauge (0 if it was never set)."""
        with self._lock:
            gauge = self._gauges.get(name)
            return gauge.value if gauge is not None else 0.0

    def snapshot(self) -> Dict[str, Any]:
        """A point-in-time copy as a plain JSON-serializable dict.

        Round-trips losslessly through ``json.dumps``/``json.loads``.
        """
        with self._lock:
            return {
                "counters": {
                    name: c.as_json() for name, c in sorted(self._counters.items())
                },
                "gauges": {
                    name: g.as_json() for name, g in sorted(self._gauges.items())
                },
                "histograms": {
                    name: h.as_json() for name, h in sorted(self._histograms.items())
                },
            }

    def merge_counters(self, counters: Dict[str, float]) -> None:
        """Add another registry's counter totals into this one.

        ``counters`` is the ``"counters"`` section of a
        :meth:`snapshot` — this is how worker-process registries are
        folded back into the parent after a parallel sweep (gauges and
        histograms are point-in-time/distribution-shaped and are not
        merged).  No-op while this registry is disabled.
        """
        for name, value in counters.items():
            self.inc(name, value)

    def merge_histograms(self, histograms: Dict[str, Dict[str, Any]]) -> None:
        """Fold another registry's histogram snapshots into this one.

        ``histograms`` is the ``"histograms"`` section of a
        :meth:`snapshot`.  Counts, sums, min/max, and per-bucket counts
        are all additive/order-free (shared :data:`BUCKET_BOUNDS`), so
        merging worker snapshots chunk by chunk reproduces exactly the
        histogram a serial run would have built.  No-op while disabled.
        """
        if not self.enabled:
            return
        for name, stats in histograms.items():
            with self._lock:
                histogram = self._histograms.get(name)
                if histogram is None:
                    if self.validate:
                        metric_names.check_metric("histogram", name)
                    histogram = self._histograms[name] = Histogram(name)
                histogram.merge_json(stats)

    def merge_snapshot(self, snapshot: Dict[str, Any]) -> None:
        """Fold a full :meth:`snapshot` into this registry.

        Counters and histograms merge additively; gauges are
        point-in-time values and are deliberately *not* merged (a worker's
        last-written gauge has no meaning in the parent).
        """
        self.merge_counters(snapshot.get("counters", {}))
        self.merge_histograms(snapshot.get("histograms", {}))

    def reset(self) -> None:
        """Drop every metric (names included)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    def render_text(self) -> str:
        """Human-readable report of the current contents."""
        snap = self.snapshot()
        lines: List[str] = ["== metrics =="]
        if snap["counters"]:
            lines.append("counters:")
            width = max(len(name) for name in snap["counters"])
            for name, value in snap["counters"].items():
                lines.append(f"  {name:<{width}}  {value:,}")
        if snap["gauges"]:
            lines.append("gauges:")
            width = max(len(name) for name in snap["gauges"])
            for name, value in snap["gauges"].items():
                lines.append(f"  {name:<{width}}  {value:g}")
        if snap["histograms"]:
            lines.append("histograms:")
            width = max(len(name) for name in snap["histograms"])
            with self._lock:
                quantiles = {
                    name: (h.quantile(0.5), h.quantile(0.95), h.quantile(0.99))
                    for name, h in self._histograms.items()
                    if h.count
                }
            for name, stats in snap["histograms"].items():
                p50, p95, p99 = quantiles.get(name, (math.nan,) * 3)
                lines.append(
                    f"  {name:<{width}}  n={stats['count']} "
                    f"mean={stats['mean']:.6g} p50={p50:.6g} "
                    f"p95={p95:.6g} p99={p99:.6g} "
                    f"min={stats['min']:.6g} max={stats['max']:.6g}"
                )
        if len(lines) == 1:
            lines.append("(empty)")
        return "\n".join(lines)

    def save(self, path: PathLike) -> None:
        """Write the snapshot as JSON to ``path`` (creating parent dirs)."""
        parent = os.path.dirname(str(path))
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.snapshot(), handle, indent=2, sort_keys=True)
            handle.write("\n")


#: The process-wide default registry; disabled until opted into.  It
#: validates names against :mod:`repro.obs.metric_names` — the library's
#: own instrumentation must only emit declared metrics.
_REGISTRY = MetricsRegistry(enabled=False, validate=True)


def get_registry() -> MetricsRegistry:
    """The process-wide default registry the library instruments into."""
    return _REGISTRY


def enable_metrics() -> None:
    """Start collecting metrics in the default registry."""
    _REGISTRY.enabled = True


def disable_metrics() -> None:
    """Stop collecting (already collected values are retained)."""
    _REGISTRY.enabled = False


def metrics_enabled() -> bool:
    """Whether the default registry is currently collecting."""
    return _REGISTRY.enabled


def inc(name: str, amount: float = 1.0) -> None:
    """Add to a counter in the default registry (no-op when disabled)."""
    if not _REGISTRY.enabled:
        return
    _REGISTRY.inc(name, amount)


def set_gauge(name: str, value: float) -> None:
    """Set a gauge in the default registry (no-op when disabled)."""
    if not _REGISTRY.enabled:
        return
    _REGISTRY.set_gauge(name, value)


def gauge_value(name: str) -> float:
    """Current value of a gauge in the default registry (0 if never set)."""
    return _REGISTRY.gauge_value(name)


def observe(name: str, value: float) -> None:
    """Observe into a histogram in the default registry (no-op when disabled)."""
    if not _REGISTRY.enabled:
        return
    _REGISTRY.observe(name, value)


def merge_snapshot(snapshot: Dict[str, Any]) -> None:
    """Fold a :func:`metrics_snapshot`-shaped dict's counters *and*
    histograms into the default registry (no-op when disabled; see
    :meth:`MetricsRegistry.merge_snapshot`)."""
    if not _REGISTRY.enabled:
        return
    _REGISTRY.merge_snapshot(snapshot)


def metrics_snapshot() -> Dict[str, Any]:
    """Snapshot of the default registry (see :meth:`MetricsRegistry.snapshot`)."""
    return _REGISTRY.snapshot()


def reset_metrics() -> None:
    """Clear the default registry."""
    _REGISTRY.reset()


def render_metrics() -> str:
    """Text report of the default registry."""
    return _REGISTRY.render_text()


def save_metrics(path: PathLike) -> None:
    """Write the default registry's snapshot as JSON to ``path``."""
    _REGISTRY.save(path)
