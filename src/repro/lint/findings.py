"""Data model of the invariant checker: findings and source files.

A :class:`Finding` is one rule violation at one source location; the
engine collects them across files, filters suppressed ones, and renders
them as ``path:line:col RULE message`` text or a SARIF document.  A
:class:`SourceFile` bundles everything a rule needs to inspect one file —
the parsed AST, the raw source, the node index, the import table and the
suppression map — so each file is read, parsed, tokenized and walked at
most once no matter how many rules and extractors look at it.
"""

from __future__ import annotations

import ast
import functools
import pathlib
from dataclasses import dataclass, field
from typing import Dict, FrozenSet

from .index import FileIndex, ImportTable, module_name_for_path
from .suppress import comment_directives, widen_to_statements


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

    def render(self) -> str:
        """The canonical one-line text form: ``path:line:col RULE message``."""
        return f"{self.path}:{self.line}:{self.col} {self.rule} {self.message}"


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
        return ImportTable(
            self.index.of(ast.Import, ast.ImportFrom),
            self.module,
            package=pathlib.PurePath(self.path).name == "__init__.py",
        )

    @functools.cached_property
    def directives(self) -> Dict[int, FrozenSet[str]]:
        """Line → rule codes its own ``repro-lint: disable=`` comment names."""
        return comment_directives(self.source)

    @functools.cached_property
    def suppressions(self) -> Dict[int, FrozenSet[str]]:
        """Line → disabled rule codes, widened to statement spans."""
        return widen_to_statements(dict(self.directives), self.index.nodes)
