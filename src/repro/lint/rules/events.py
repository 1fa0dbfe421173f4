"""RL007 — event registry: every literal event kind is checked in.

The :class:`repro.obs.events.SweepEvents` bus validates event kinds at
runtime against :data:`repro.obs.metric_names.EVENTS`, but a typo'd kind
(``bus.emit("chunk_complete")``) only surfaces when that code path
actually runs — which for retry/resume emissions may be never in normal
operation.  This rule statically checks every ``emit`` call on a
bus-like receiver (a name mentioning ``event`` or ``bus``, e.g.
``events.emit(...)``, ``self._bus.emit(...)``) whose kind argument is a
string literal against the registry.  Dynamic kinds (variables,
f-strings) are skipped here and caught at runtime by
:class:`repro.obs.metric_names.UnknownMetricError` instead.

The receiver gate is what keeps unrelated ``emit`` callables out of
scope: ``logging.Handler.emit(record)``, a benchmark's local
``emit(name, text)`` artifact helper, and similar APIs never match.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ...obs import metric_names as registry
from ..findings import Finding, SourceFile
from .base import Rule, dotted_name

#: Receiver-name fragments that mark an ``.emit`` call as a bus call.
_BUS_MARKERS = ("event", "bus")


def _is_bus_emit(call: ast.Call) -> bool:
    """Whether a call is an event-bus emission.

    Matches ``<receiver>.emit(...)`` when any component of the receiver's
    dotted name mentions an event bus (``events.emit``, ``bus.emit``,
    ``self._events.emit``, ``args.events_bus.emit``), plus any call named
    ``emit_event``.  A bare ``emit(...)`` is deliberately not matched.
    """
    callee = dotted_name(call.func)
    if callee is None:
        return False
    parts = callee.split(".")
    if parts[-1] == "emit_event":
        return True
    if parts[-1] != "emit" or len(parts) < 2:
        return False
    receiver = ".".join(parts[:-1]).lower()
    return any(marker in receiver for marker in _BUS_MARKERS)


class EventNamesRule(Rule):
    code = "RL007"
    name = "event-names"
    description = (
        "event kinds emitted on a SweepEvents bus must appear in the "
        "EVENTS registry in repro/obs/metric_names.py"
    )

    def check(self, file: SourceFile) -> Iterator[Finding]:
        for node in file.index.of(ast.Call):
            if not _is_bus_emit(node):
                continue
            if not node.args:
                continue
            first = node.args[0]
            if not (isinstance(first, ast.Constant) and isinstance(first.value, str)):
                continue  # dynamic kinds are validated at runtime instead
            kind = first.value
            if not registry.is_known_metric("event", kind):
                yield self.finding(
                    file,
                    node,
                    f"event kind {kind!r} is not registered in the EVENTS "
                    "registry in repro/obs/metric_names.py; add it there "
                    "(one place) or fix the typo",
                )
