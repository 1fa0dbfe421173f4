"""Rule base class and shared AST helpers.

A rule is a small, stateless object with a ``code`` (``RL001``…), a
``severity``, an optional path scope (:meth:`Rule.applies_to`), and a
:meth:`Rule.check` generator producing :class:`~repro.lint.findings.Finding`
objects from a parsed :class:`~repro.lint.findings.SourceFile`.  The
engine parses each file once and hands the same ``SourceFile`` to every
selected rule; rules query its node index (``file.index.of(ast.Call)``)
and import table (``file.imports.resolve_call(call)``) rather than
walking the tree themselves.  :func:`dotted_name` resolves an
``ast.Name``/``ast.Attribute`` chain to its ``"a.b.c"`` spelling.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..findings import Finding, Severity, SourceFile
from ..index import dotted_name

__all__ = ["ProjectRule", "Rule", "dotted_name"]


class Rule:
    """Base class for one invariant check.

    ``phase`` is ``"file"`` for rules that see one parsed file at a time
    and ``"project"`` for whole-program rules that run over the
    :class:`~repro.lint.graph.Project` model after every file's facts
    are in hand.
    """

    code: str = "RL000"
    name: str = "base"
    severity: Severity = Severity.ERROR
    description: str = ""
    phase: str = "file"

    def applies_to(self, file: SourceFile) -> bool:
        """Whether this rule inspects ``file`` at all (path scoping)."""
        return True

    def check(self, file: SourceFile) -> Iterator[Finding]:
        """Yield findings for ``file``.  Subclasses must override."""
        raise NotImplementedError

    def finding(self, file: SourceFile, node: ast.AST, message: str) -> Finding:
        """A :class:`Finding` for ``node`` attributed to this rule."""
        return Finding(
            path=file.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=self.code,
            message=message,
            severity=self.severity.value,
        )


class ProjectRule(Rule):
    """Base class for whole-program rules.

    A project rule never sees raw ASTs: it queries the
    :class:`~repro.lint.graph.Project` built from every linted file's
    extracted facts (module graph, call graph, reachability universes)
    and yields findings anchored back into individual files.
    """

    phase = "project"

    def check(self, file: SourceFile) -> Iterator[Finding]:
        return iter(())  # project rules run in the project phase only

    def check_project(self, project) -> Iterator[Finding]:
        """Yield findings across the whole project.  Must override."""
        raise NotImplementedError

    def project_finding(
        self, path: str, line: int, col: int, message: str
    ) -> Finding:
        """A :class:`Finding` at an explicit location for this rule."""
        return Finding(
            path=path,
            line=line,
            col=col,
            rule=self.code,
            message=message,
            severity=self.severity.value,
        )
