"""Inline suppression directives: ``# repro-lint: disable=RULE``.

A finding is suppressed when the statement it is reported on carries a
disable comment naming its rule (or ``all``)::

    if energy == capacity_mwh:  # repro-lint: disable=RL005 — exact rail check

Multiple rules are comma-separated (``disable=RL001,RL005``).  Everything
after the rule list — conventionally a justification, as in the example —
is ignored by the parser but required by review policy: a suppression
without a *why* is a smell (see DESIGN.md "Static analysis").  A code
that names no registered rule (a typo, or a retired rule) suppresses
nothing, so the engine reports it as ``RL000`` at the directive's line.

Directives are extracted from real comment tokens via :mod:`tokenize`, so
a ``repro-lint:`` inside a string literal never suppresses anything.

A directive covers its *statement's* full line span, not just its
physical line: a call spelled over four lines is suppressed by a comment
on any of them, and a decorated ``def`` is suppressed by a comment on
the decorator or the header.  Compound statements (``def``, ``if``,
``with``, …) span only their header lines — a directive on a ``def``
line must not blanket the whole body.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from typing import Dict, FrozenSet, Iterable

#: Sentinel rule name matching every rule on the line.
DISABLE_ALL = "all"

#: Statements whose body must NOT inherit a header directive.
_COMPOUND = (
    ast.FunctionDef,
    ast.AsyncFunctionDef,
    ast.ClassDef,
    ast.If,
    ast.For,
    ast.AsyncFor,
    ast.While,
    ast.With,
    ast.AsyncWith,
    ast.Try,
)

_DIRECTIVE = re.compile(
    r"#\s*repro-lint:\s*disable=([A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*)"
)


def parse_directive(comment: str) -> FrozenSet[str]:
    """Rule codes named by one comment string (empty set when none)."""
    match = _DIRECTIVE.search(comment)
    if not match:
        return frozenset()
    return frozenset(code.strip() for code in match.group(1).split(","))


def _statement_spans(nodes: Iterable[ast.AST]) -> "list[tuple[int, int]]":
    """``(first, last)`` physical-line spans of every statement in ``nodes``.

    Simple statements span their full ``lineno..end_lineno``.  Compound
    statements span from their first decorator (if any) to the line
    before their body starts, clamped to at least the header line — so a
    directive anywhere on a decorated/multi-line header reaches findings
    anchored anywhere on it, without blanketing the body.
    """
    spans = []
    for node in nodes:
        if not isinstance(node, ast.stmt):
            continue
        first = node.lineno
        decorators = getattr(node, "decorator_list", None)
        if decorators:
            first = min([first] + [d.lineno for d in decorators])
        if isinstance(node, _COMPOUND):
            body = getattr(node, "body", None)
            last = body[0].lineno - 1 if body else node.lineno
            last = max(last, node.lineno)
        else:
            last = getattr(node, "end_lineno", None) or node.lineno
        if last > first:  # single-line spans add nothing
            spans.append((first, last))
    return spans


def comment_directives(source: str) -> Dict[int, FrozenSet[str]]:
    """Map of line number to the rule codes its own comment disables.

    Only a source containing ``repro-lint`` is tokenized: the directive
    pattern requires that string, so every other file has none.
    Tokenization errors (the file may be unparseable or use an encoding
    trick) degrade to "no suppressions" — the engine reports the parse
    failure separately, and a file that cannot be tokenized cannot carry
    trustworthy directives anyway.
    """
    suppressions: Dict[int, FrozenSet[str]] = {}
    if "repro-lint" not in source:
        return suppressions
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            codes = parse_directive(token.string)
            if codes:
                line = token.start[0]
                suppressions[line] = suppressions.get(line, frozenset()) | codes
    except (tokenize.TokenError, SyntaxError, IndentationError, ValueError):
        return {}
    return suppressions


def widen_to_statements(
    suppressions: Dict[int, FrozenSet[str]], nodes: Iterable[ast.AST]
) -> Dict[int, FrozenSet[str]]:
    """Widen each directive in place to its statement's full line span."""
    if not suppressions:
        return suppressions
    for first, last in _statement_spans(nodes):
        span_codes = frozenset().union(
            *(suppressions.get(line, frozenset()) for line in range(first, last + 1))
        )
        if not span_codes:
            continue
        for line in range(first, last + 1):
            suppressions[line] = suppressions.get(line, frozenset()) | span_codes
    return suppressions


def is_suppressed(
    suppressions: Dict[int, FrozenSet[str]], line: int, rule: str
) -> bool:
    """Whether ``rule`` is disabled on ``line``."""
    codes = suppressions.get(line)
    if not codes:
        return False
    return rule in codes or DISABLE_ALL in codes
