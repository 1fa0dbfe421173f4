"""RL004 — metric registry: literal metric and event names are checked in.

Counters, gauges, and histograms are created lazily on first write, so a
typo'd name (``inc("design_evaluated")``) never errors — it just forks a
second metric that tests, dashboards, and ``--metrics-out`` readers
silently miss.  A typo'd event kind (``bus.emit("chunk_complete")``)
only surfaces when that code path runs, which for retry/resume
emissions may be never.  The single source of truth is a package's
``obs/metric_names.py`` (``COUNTERS``, ``GAUGES``, ``EVENTS`` and the
span-histogram ``HISTOGRAM_PATTERNS``).

This project rule checks every literal use exactly once: each metrics-API
call (``inc``, ``set_gauge``, ``observe``, ``counter_value``, module-level
or as a registry method) and each event-bus emission (``events.emit``,
``self._bus.emit``, ``emit_event``; see
:func:`repro.lint.graph.facts._is_bus_emit`) whose first argument is a
string literal is checked, per kind, against **one** registry: the
linted ``obs/metric_names.py`` of the use's own top-level package if
there is one, else the installed :mod:`repro.obs.metric_names`.
Histogram names always match the installed span patterns.  Dynamic
names (f-strings, variables) are skipped here and caught at runtime by
:class:`repro.obs.metric_names.UnknownMetricError` instead.

The converse is checked too: a counter, gauge or event a linted registry
declares that no use checked against it emits is dead weight — a
dashboard panel that will stay blank forever — and is flagged at its
declaration line.  Counters and gauges share one namespace there (a
name declared as a counter and read through a gauge API still counts
as emitted).  A registry outside the linted set has no dead-declaration
check: linting a lone subdirectory must not report every name as dead.
"""

from __future__ import annotations

from typing import Dict, Iterator, Set, Tuple

from ...obs import metric_names as installed
from ..findings import Finding
from ..graph.facts import REGISTRY_MODULE
from .base import ProjectRule


def _registry_of(module: str) -> str:
    """Module name of the registry of ``module``'s top-level package."""
    return f"{module.split('.')[0]}.{REGISTRY_MODULE}"


def _namespace(kind: str) -> str:
    return "event" if kind == "event" else "metric"


class MetricRegistryRule(ProjectRule):
    code = "RL004"
    name = "metric-registry"
    description = (
        "literal metric names and event kinds are declared in their "
        "package's obs/metric_names.py, and every declaration is emitted"
    )

    def check_project(self, project) -> Iterator[Finding]:
        declared: Dict[str, Set[Tuple[str, str]]] = {
            module: {(decl["kind"], decl["name"]) for decl in facts["decls"]}
            for module, facts in project.modules.items()
            if module == _registry_of(module)
        }
        emitted: Set[Tuple[str, str, str]] = set()
        for module, facts in project.modules.items():
            registry = _registry_of(module)
            local = declared.get(registry)
            where = (
                "repro/obs/metric_names.py"
                if local is None
                else project.modules[registry]["path"]
            )
            for use in facts["uses"]:
                kind, name = use["kind"], use["name"]
                if local is None or kind == "histogram":
                    known = installed.is_known_metric(kind, name)
                else:
                    known = (kind, name) in local
                    emitted.add((registry, _namespace(kind), name))
                if not known:
                    yield self.project_finding(
                        facts["path"],
                        use["line"],
                        use["col"],
                        f"{kind} name {name!r} is not declared in {where}; "
                        "add it there (one place) or fix the typo",
                    )
        for registry in declared:
            facts = project.modules[registry]
            for decl in facts["decls"]:
                if (registry, _namespace(decl["kind"]), decl["name"]) in emitted:
                    continue
                yield self.project_finding(
                    facts["path"],
                    decl["line"],
                    0,
                    f"{decl['kind']} {decl['name']!r} is declared in the "
                    "registry but never emitted anywhere in the linted "
                    "tree; delete it or wire up its emission site",
                )
