"""RL006 — exception hygiene: interrupts must escape resilience paths.

The resilience layer's contract is that Ctrl-C always wins: a sweep
flushes its journal and raises ``SweepInterrupted`` (a
``KeyboardInterrupt`` subclass), and nothing on the way up may swallow
it.  A bare ``except:`` — or an ``except BaseException`` /
``except KeyboardInterrupt`` / ``except SweepInterrupted`` handler that
never re-raises — breaks that contract silently: the sweep "survives"
the interrupt, the journal is never closed, and the user's second Ctrl-C
kills the process mid-write.

The rule flags any handler that can catch an interrupt (bare,
``BaseException``, ``KeyboardInterrupt``, ``SweepInterrupted``, alone or
inside a tuple) whose body contains no ``raise``.  Process boundaries
that intentionally convert an interrupt into an exit code (the CLI's
``except SweepInterrupted: ... return 130``) suppress with the
justification inline.
"""

from __future__ import annotations

import ast
from typing import Iterator, List

from ..findings import Finding, SourceFile
from .base import Rule, dotted_name

#: Exception names whose capture requires a re-raise.
_INTERRUPT_NAMES = frozenset(
    {"BaseException", "KeyboardInterrupt", "SweepInterrupted"}
)


def _caught_interrupts(handler: ast.ExceptHandler) -> List[str]:
    """Interrupt-class names this handler captures (bare except = all)."""
    if handler.type is None:
        return ["<bare except>"]
    types = (
        list(handler.type.elts)
        if isinstance(handler.type, ast.Tuple)
        else [handler.type]
    )
    caught = []
    for node in types:
        name = dotted_name(node)
        if name is not None and name.split(".")[-1] in _INTERRUPT_NAMES:
            caught.append(name)
    return caught


class ExceptionHygieneRule(Rule):
    code = "RL006"
    name = "exception-hygiene"
    description = (
        "no bare except; handlers catching BaseException/KeyboardInterrupt/"
        "SweepInterrupted must re-raise"
    )

    def check(self, file: SourceFile) -> Iterator[Finding]:
        for node in file.index.of(ast.ExceptHandler):
            caught = _caught_interrupts(node)
            if not caught or file.index.within(node, ast.Raise):
                continue  # nothing interrupt-shaped, or it re-raises
            yield self.finding(
                file,
                node,
                f"handler catching {', '.join(caught)} never re-raises; "
                "interrupts must escape (re-raise SweepInterrupted/"
                "KeyboardInterrupt) so journals flush and Ctrl-C wins",
            )
