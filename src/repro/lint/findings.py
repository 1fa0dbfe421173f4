"""Data model of the invariant checker: findings, severities, source files.

A :class:`Finding` is one rule violation at one source location; the
engine collects them across files, filters suppressed ones, and renders
them as ``path:line:col RULE message`` text or a JSON document.  A
:class:`SourceFile` bundles everything a rule needs to inspect one file —
the parsed AST, the raw source, the node index, the import table, the
suppression map, and the path split into components for scope checks —
so each file is read, parsed, tokenized and walked at most once no
matter how many rules and extractors look at it.
"""

from __future__ import annotations

import ast
import enum
import functools
import pathlib
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Tuple

from .index import FileIndex, ImportTable, module_name_for_path
from .suppress import comment_directives, widen_to_statements


class Severity(enum.Enum):
    """How a finding gates the run.

    Both severities currently fail the lint exit code (the contracts the
    rules encode are load-bearing); the distinction is informational and
    lets a future rule opt into advisory-only reporting.
    """

    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location.

    Ordering is ``(path, line, col, rule)`` so reports are stable and
    diffs between runs are meaningful.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str = field(compare=False)
    severity: str = field(default=Severity.ERROR.value, compare=False)

    def render(self) -> str:
        """The canonical one-line text form: ``path:line:col RULE message``."""
        return f"{self.path}:{self.line}:{self.col} {self.rule} {self.message}"

    def as_json(self) -> Dict[str, Any]:
        """JSON-object form used by ``--format json``."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "severity": self.severity,
            "message": self.message,
        }


@dataclass
class SourceFile:
    """One parsed Python file, shared by every rule that inspects it."""

    path: str
    source: str
    tree: ast.Module

    @functools.cached_property
    def index(self) -> FileIndex:
        """The one walk of :attr:`tree` every consumer reads."""
        return FileIndex(self.tree)

    @functools.cached_property
    def module(self) -> str:
        """Dotted module name (see :func:`~repro.lint.index.module_name_for_path`)."""
        return module_name_for_path(self.path)

    @functools.cached_property
    def imports(self) -> ImportTable:
        """The file's import table, relative imports resolved."""
        return ImportTable(self.index.of(ast.Import, ast.ImportFrom), self.module)

    @functools.cached_property
    def suppressions(self) -> Dict[int, FrozenSet[str]]:
        """Line → disabled rule codes, widened to statement spans."""
        return widen_to_statements(comment_directives(self.source), self.index.nodes)

    @property
    def dir_parts(self) -> Tuple[str, ...]:
        """Directory components of the path (filename excluded).

        Rules scope themselves by package directory — ``kernels`` purity
        applies to any file under a ``kernels/`` directory — so fixture
        trees under ``tests/lint/fixtures/kernels/`` exercise the same
        scoping as ``src/repro/kernels/``.
        """
        return pathlib.PurePath(self.path).parts[:-1]

    def in_directory(self, *names: str) -> bool:
        """Whether any directory component matches one of ``names``."""
        return any(part in names for part in self.dir_parts)
