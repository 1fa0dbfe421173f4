"""RL004 — metrics registry: every literal metric name is checked in.

Counters, gauges, and histograms are created lazily on first write, so a
typo'd name (``inc("design_evaluated")``) never errors — it just forks a
second metric that tests, dashboards, and ``--metrics-out`` readers
silently miss.  The single source of truth is
:mod:`repro.obs.metric_names`; this rule statically checks every call to
the metrics API (``inc``, ``set_gauge``, ``observe``, ``counter_value``,
whether module-level or as a registry method) whose name argument is a
string literal against it.  Dynamic names (f-strings, variables) are
skipped here and caught at runtime by
:class:`repro.obs.metric_names.UnknownMetricError` instead.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from ...obs import metric_names as registry
from ..findings import Finding, SourceFile
from .base import Rule, dotted_name

#: Metrics-API callables mapped to the metric kind their name refers to.
_API_KINDS = {
    "inc": "counter",
    "counter_value": "counter",
    "set_gauge": "gauge",
    "observe": "histogram",
}


def _api_kind(call: ast.Call) -> Optional[str]:
    """The metric kind a call writes/reads, or ``None`` if not the API."""
    callee = dotted_name(call.func)
    if callee is None:
        return None
    return _API_KINDS.get(callee.split(".")[-1])


class MetricNamesRule(Rule):
    code = "RL004"
    name = "metric-names"
    description = (
        "metric names used via repro.obs.metrics must appear in "
        "repro/obs/metric_names.py"
    )

    def check(self, file: SourceFile) -> Iterator[Finding]:
        for node in file.index.of(ast.Call):
            kind = _api_kind(node)
            if kind is None or not node.args:
                continue
            first = node.args[0]
            if not (isinstance(first, ast.Constant) and isinstance(first.value, str)):
                continue  # dynamic names are validated at runtime instead
            name = first.value
            if not registry.is_known_metric(kind, name):
                yield self.finding(
                    file,
                    node,
                    f"{kind} name {name!r} is not registered in "
                    "repro/obs/metric_names.py; add it there (one place) "
                    "or fix the typo",
                )
