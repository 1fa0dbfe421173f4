"""One traversal per file: the node index every rule and extractor reads.

The engine parses each file once and walks the tree once.  That walk
records every node in source (pre)order, the end of each node's subtree,
each node's enclosing scope, and a per-type position list.  Every
question a rule or the fact extractor asks is then a lookup:

* :meth:`FileIndex.of` — all nodes of some types (``ast.Call``, …);
* :meth:`FileIndex.within` — those inside one node's subtree, which is
  a contiguous run of the preorder, found by bisection instead of a
  nested ``ast.walk``;
* :meth:`FileIndex.scope_of` — the module, ``def`` or ``class`` node
  whose body a node runs in (a ``def``'s decorators, defaults and body
  all belong to the ``def``).

Context and operator nodes (``ast.Load``, ``ast.Add``, ``ast.Eq``, …)
are shared singletons with no position and carry no facts; the walk
skips them.

:class:`ImportTable` is the file's one import table: local names mapped
to the dotted paths they were imported as, relative imports resolved
against the file's module name.
"""

from __future__ import annotations

import ast
import bisect
import heapq
import pathlib
from typing import Dict, Iterable, List, Optional

#: Leaf singletons the walk skips (see the module docstring).
_SKIPPED = frozenset(
    cls
    for base in (ast.expr_context, ast.boolop, ast.operator, ast.unaryop, ast.cmpop)
    for cls in base.__subclasses__()
)

#: Nodes that open a scope of their own.
SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


class FileIndex:
    """Every node of one parsed module, indexed in a single walk."""

    def __init__(self, tree: ast.AST) -> None:
        self.nodes: List[ast.AST] = []
        self._end: List[int] = []
        self._scope: List[ast.AST] = []
        self._pos: Dict[ast.AST, int] = {}
        self._by_type: Dict[type, List[int]] = {}
        self._walk(tree)

    def _walk(self, tree: ast.AST) -> None:
        nodes, end, scopes, pos = self.nodes, self._end, self._scope, self._pos
        by_type, skip = self._by_type, _SKIPPED
        stack: list = [(tree, tree)]
        while stack:
            item = stack.pop()
            if item.__class__ is int:  # subtree of nodes[item] is complete
                end[item] = len(nodes)
                continue
            node, scope = item
            i = len(nodes)
            nodes.append(node)
            end.append(0)
            scopes.append(scope)
            pos[node] = i
            positions = by_type.get(node.__class__)
            if positions is None:
                by_type[node.__class__] = [i]
            else:
                positions.append(i)
            stack.append(i)
            if isinstance(node, SCOPE_NODES):
                scope = node
            children = []
            for field in node._fields:
                value = getattr(node, field, None)
                if value.__class__ is list:
                    for child in value:
                        if isinstance(child, ast.AST) and child.__class__ not in skip:
                            children.append((child, scope))
                elif isinstance(value, ast.AST) and value.__class__ not in skip:
                    children.append((value, scope))
            children.reverse()
            stack.extend(children)

    def _positions(self, types: Iterable[type], lo: int, hi: int) -> List[int]:
        runs = []
        for cls in types:
            positions = self._by_type.get(cls, ())
            left = bisect.bisect_left(positions, lo)
            right = bisect.bisect_left(positions, hi, left)
            if right > left:
                runs.append(positions[left:right])
        if len(runs) == 1:
            return runs[0]
        return list(heapq.merge(*runs))

    def of(self, *types: type) -> List[ast.AST]:
        """Every node whose exact type is one of ``types``, in source order."""
        nodes = self.nodes
        return [nodes[i] for i in self._positions(types, 0, len(nodes))]

    def within(self, node: ast.AST, *types: type) -> List[ast.AST]:
        """Nodes of ``types`` in ``node``'s subtree (itself included)."""
        start = self._pos[node]
        nodes = self.nodes
        return [nodes[i] for i in self._positions(types, start, self._end[start])]

    def scope_of(self, node: ast.AST) -> ast.AST:
        """The module, ``def`` or ``class`` node whose body ``node`` is in."""
        return self._scope[self._pos[node]]


def dotted_name(node: ast.AST) -> Optional[str]:
    """``"a.b.c"`` for a Name/Attribute chain, ``None`` for anything else."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def module_name_for_path(path_str: str) -> str:
    """Dotted module name for a file, following ``__init__.py`` chains.

    ``src/repro/core/engine.py`` → ``repro.core.engine`` (``src`` has no
    ``__init__.py``, ``repro`` does).  Files outside any package get a
    two-component pseudo-module from their parent directory and stem
    (``tmp/kernels/battery.py`` → ``kernels.battery``) so fixture trees
    and scratch copies scope the same way the packaged source does.
    """
    path = pathlib.Path(path_str)
    stem = path.stem
    pkg: List[str] = []
    directory = path.parent
    try:
        while (directory / "__init__.py").is_file():
            pkg.append(directory.name)
            parent = directory.parent
            if parent == directory:
                break
            directory = parent
    except OSError:  # pragma: no cover - unreadable ancestor
        pkg = []
    if pkg:
        parts = list(reversed(pkg))
        if stem != "__init__":
            parts.append(stem)
        return ".".join(parts)
    parent_name = path.parent.name
    if parent_name in ("", ".", ".."):
        return stem
    return f"{parent_name}.{stem}"


class ImportTable:
    """Local-name → canonical dotted path map for one module.

    ``import time as t`` maps ``t`` → ``time``; ``from time import time
    as now`` maps ``now`` → ``time.time``; in ``repro.core.engine``,
    ``from ..obs import inc`` maps ``inc`` → ``repro.obs.inc`` (the call
    graph needs intra-package edges).  In a package's ``__init__.py``
    (``package=True``) ``.`` is the package itself: in ``repro.io``,
    ``from .eia_csv import load`` maps ``load`` → ``repro.io.eia_csv.load``.
    Later imports of a name win.
    ``imported`` lists every import as ``{"module", "names"}`` for the
    module graph.
    """

    def __init__(
        self, imports: Iterable[ast.AST], module: str, package: bool = False
    ) -> None:
        self.aliases: Dict[str, str] = {}
        self.imported: List[Dict[str, object]] = []
        mod_parts = module.split(".")
        if package:  # one level up from __init__ is the package itself
            mod_parts.append("__init__")
        for node in imports:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    # `import a.b` binds `a`; `import a.b as c` binds `a.b` to c.
                    target = alias.name if alias.asname else local
                    self.aliases[local] = target
                    self.imported.append({"module": alias.name, "names": []})
                continue
            base = node.module or ""
            if node.level:
                anchor = (
                    mod_parts[: -node.level] if len(mod_parts) >= node.level else []
                )
                base = ".".join(anchor + ([node.module] if node.module else []))
            if not base:
                continue
            self.imported.append(
                {"module": base, "names": [alias.name for alias in node.names]}
            )
            for alias in node.names:
                self.aliases[alias.asname or alias.name] = f"{base}.{alias.name}"

    def resolve(self, dotted: Optional[str]) -> Optional[str]:
        """Canonicalize the leading component of ``dotted`` through imports."""
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        canonical = self.aliases.get(head)
        if canonical is None:
            return dotted
        return f"{canonical}.{rest}" if rest else canonical

    def resolve_call(self, call: ast.Call) -> Optional[str]:
        """Canonical dotted path of a call's callee (``None`` if dynamic)."""
        return self.resolve(dotted_name(call.func))
