"""RL011 — dispatch-loop hygiene: the scheduler's hot loop never stalls.

``SweepEngine.dispatch`` is the one loop everything else waits on: it
feeds workers, collects results, advances deadlines, steals capacity.
Liveness there is a *global* property — one unbounded ``.result()`` and
a hung worker hangs the whole sweep instead of tripping the deadline
logic; one stray ``print`` and worker-thread output interleaves with
the progress surface.

This file rule finds every class named ``SweepEngine``, walks the
intra-class call graph from ``dispatch`` through ``self.*`` calls, and
inside the reached methods flags:

* ``future.result()`` with no timeout — blocks forever on a wedged
  worker; use ``result(timeout=...)`` (``timeout=0`` for futures already
  known done);
* ``concurrent.futures.wait(...)`` / ``as_completed(...)`` without a
  ``timeout`` — same unbounded stall, wholesale;
* ``time.sleep(x)`` with an unbounded argument — backoff must be
  tick-clamped (``_TICK_S``, ``min(delay, bound)``, or a conditional
  whose branches are both clamped) so shutdown/deadline checks stay
  responsive;
* ``open`` / ``print`` / ``input`` — blocking I/O does not belong in a
  scheduler loop; telemetry goes through the obs plane.

Methods the dispatch loop cannot reach (setup, teardown, reporting) are
exempt: ``shutdown(wait=True)`` *after* the loop exits is correct code.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Set

from ..findings import Finding, SourceFile
from ..index import FileIndex
from .base import Rule, dotted_name

#: Class whose dispatch loop this rule audits.
_ENGINE_CLASS = "SweepEngine"

#: Root method of the audited call graph.
_DISPATCH_ROOT = "dispatch"

#: Canonical callables that stall unboundedly without a timeout.
_WAIT_CALLS = frozenset(
    {"concurrent.futures.wait", "concurrent.futures.as_completed"}
)

_BLOCKING_IO = frozenset({"open", "print", "input"})


def _reached_methods(
    index: FileIndex, cls: ast.ClassDef
) -> List[ast.FunctionDef]:
    """Methods reachable from ``dispatch`` via ``self.*`` calls."""
    methods: Dict[str, ast.FunctionDef] = {
        node.name: node
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    if _DISPATCH_ROOT not in methods:
        return []
    seen: Set[str] = {_DISPATCH_ROOT}
    frontier = [_DISPATCH_ROOT]
    while frontier:
        method = methods[frontier.pop()]
        for node in index.within(method, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "self"
                and func.attr in methods
                and func.attr not in seen
            ):
                seen.add(func.attr)
                frontier.append(func.attr)
    return [methods[name] for name in sorted(seen)]


def _has_timeout(call: ast.Call, positional_slot: int) -> bool:
    """Whether ``call`` bounds its wait (timeout kwarg or the positional)."""
    if any(kw.arg == "timeout" for kw in call.keywords):
        return True
    return len(call.args) > positional_slot


def _sleep_is_clamped(arg: ast.AST) -> bool:
    """Whether a ``time.sleep`` argument is provably tick-bounded."""
    if isinstance(arg, ast.Constant):
        return True  # a literal is a bound by definition
    if isinstance(arg, ast.Name):
        return arg.id == "_TICK_S" or arg.id.endswith("_TICK_S")
    if isinstance(arg, ast.Call):
        callee = dotted_name(arg.func)
        return callee == "min"
    if isinstance(arg, ast.IfExp):
        return _sleep_is_clamped(arg.body) and _sleep_is_clamped(arg.orelse)
    return False


class DispatchHygieneRule(Rule):
    code = "RL011"
    name = "dispatch-hygiene"
    description = (
        "SweepEngine's dispatch loop must not block unboundedly "
        "(.result()/wait without timeout, unclamped sleep) or perform I/O"
    )

    def check(self, file: SourceFile) -> Iterator[Finding]:
        for node in file.index.of(ast.ClassDef):
            if node.name == _ENGINE_CLASS:
                for method in _reached_methods(file.index, node):
                    yield from self._check_method(file, method)

    def _check_method(
        self, file: SourceFile, method: ast.FunctionDef
    ) -> Iterator[Finding]:
        for node in file.index.within(method, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "result"
                and not _has_timeout(node, 0)
            ):
                yield self.finding(
                    file,
                    node,
                    f"unbounded .result() in dispatch-reachable "
                    f"{method.name!r}; a wedged worker would hang the "
                    "sweep — pass timeout= (0 for futures already done)",
                )
                continue
            callee = file.imports.resolve_call(node)
            if callee is None:
                continue
            if callee in _WAIT_CALLS and not _has_timeout(node, 1):
                yield self.finding(
                    file,
                    node,
                    f"{callee}() without timeout in dispatch-reachable "
                    f"{method.name!r}; the dispatch loop must wake on its "
                    "tick to honor deadlines and shutdown",
                )
            elif callee == "time.sleep":
                arg = node.args[0] if node.args else None
                if arg is None or not _sleep_is_clamped(arg):
                    yield self.finding(
                        file,
                        node,
                        f"unclamped time.sleep() in dispatch-reachable "
                        f"{method.name!r}; clamp backoff to the dispatch "
                        "tick (min(delay, _TICK_S)) so the loop stays "
                        "responsive",
                    )
            elif callee in _BLOCKING_IO:
                yield self.finding(
                    file,
                    node,
                    f"blocking I/O via {callee}() in dispatch-reachable "
                    f"{method.name!r}; route output through the obs plane",
                )
