"""Per-file fact extraction: everything the project phase needs.

One pass over a file's node index (:class:`~repro.lint.index.FileIndex`)
produces a plain-dict record of the facts the whole-program rules
consume — module identity, resolved imports, defined functions and
classes, call sites (with enough receiver structure to build a
conservative call graph), rule *candidates* (every RL001/RL003-shaped
site, scoping deferred to the project phase), metric name
uses/declarations for the census, and shared-memory creation shapes for
ownership tracking.

Everything here is local analysis — no fact depends on any other file.
Code is attributed to its *outermost* enclosing function: a nested
``def`` only runs when the function around it does.
"""

from __future__ import annotations

import ast
import pathlib
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..findings import SourceFile
from ..index import FileIndex, ImportTable, dotted_name
from ..rules.determinism import determinism_violation
from ..rules.kernel_purity import (
    _IO_CALLS,
    _IO_PREFIXES,
    REBINDING_NODES,
    _parameter_names,
    _rebound_names,
    _subscript_base,
)
from ..rules.metric_names import _API_KINDS
from ..rules.events import _is_bus_emit

#: Method names too generic to anchor a conservative dynamic-dispatch
#: edge: matching ``x.append(...)`` against every project method named
#: ``append`` would weld the call graph into one blob.  Distinctive
#: names (``evaluate``, ``simulate_year``, …) still match.
GENERIC_METHODS = frozenset(
    {
        "acquire",
        "add",
        "append",
        "appendleft",
        "cancel",
        "clear",
        "close",
        "copy",
        "count",
        "discard",
        "done",
        "extend",
        "flush",
        "format",
        "get",
        "index",
        "insert",
        "items",
        "join",
        "keys",
        "mkdir",
        "open",
        "pop",
        "popleft",
        "put",
        "read",
        "readline",
        "release",
        "remove",
        "result",
        "run",
        "seek",
        "send",
        "setdefault",
        "shutdown",
        "sort",
        "split",
        "start",
        "stop",
        "strip",
        "submit",
        "update",
        "values",
        "wait",
        "write",
    }
)

#: numpy constructors that always return a fresh caller-owned array.
_NP_FRESH = frozenset(
    {
        "arange",
        "array",
        "copy",
        "empty",
        "empty_like",
        "full",
        "full_like",
        "linspace",
        "ones",
        "ones_like",
        "zeros",
        "zeros_like",
    }
)

#: numpy functions that may return a *view* of their first argument —
#: ownership follows the argument, not the call.
_NP_VIEWING = frozenset(
    {
        "asarray",
        "ascontiguousarray",
        "asfortranarray",
        "atleast_1d",
        "atleast_2d",
        "atleast_3d",
        "broadcast_to",
        "expand_dims",
        "moveaxis",
        "ravel",
        "reshape",
        "squeeze",
        "swapaxes",
        "transpose",
    }
)

#: Builtins returning fresh scalars — never aliases of an argument.
_FRESH_SCALARS = frozenset({"abs", "bool", "float", "int", "len", "round"})

#: Methods returning a fresh array regardless of receiver.
_OWNED_METHODS = frozenset({"astype", "copy"})

#: Methods returning a view of their receiver.
_VIEW_METHODS = frozenset(
    {"ravel", "reshape", "squeeze", "swapaxes", "transpose", "view"}
)


#: Binding statements the ownership analysis reads, in source order.
_OWNERSHIP_BINDINGS = (
    ast.Assign,
    ast.AnnAssign,
    ast.For,
    ast.AsyncFor,
    ast.With,
    ast.AsyncWith,
)

#: What code in one scope (a module, ``def`` or ``class`` node) is
#: attributed to: the qualname of its outermost enclosing function
#: (``None`` at module or class level), the class whose body it is
#: (``None`` inside functions), and the outermost function's node.
_Context = Tuple[Optional[str], Optional[str], Optional[ast.AST]]


def module_matches(module: str, suffix: str) -> bool:
    """Whether dotted ``module`` is ``suffix`` or ends with ``.suffix``."""
    return module == suffix or module.endswith("." + suffix)


class _Ownership:
    """Local may-own analysis for one function's expressions.

    Classifies an expression as ``"owned"`` (provably a fresh object the
    caller allocated — safe for a callee to mutate), ``"param:<name>"``
    (the value *is* / views one of this function's parameters, so
    ownership is whatever the caller's caller granted), or ``"unknown"``.
    Used at private-helper call sites so the project phase can prove
    RL003 mutation candidates are kernel-owned scratch.
    """

    def __init__(
        self, func: ast.AST, bindings: List[ast.AST], imports: ImportTable
    ) -> None:
        self._imports = imports
        self.env: Dict[str, str] = {
            name: f"param:{name}" for name in _parameter_names(func)
        }
        # Two passes: a loop body may bind a name before its textual
        # definition site is reached on pass one.
        for _ in range(2):
            for node in bindings:
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target = node.targets[0]
                    if isinstance(target, ast.Name):
                        self._bind(target.id, self.classify(node.value))
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    if isinstance(node.target, ast.Name):
                        self._bind(node.target.id, self.classify(node.value))
                elif isinstance(node, (ast.For, ast.AsyncFor)):
                    if isinstance(node.target, ast.Name):
                        # Iterating an array yields views of it.
                        self._bind(node.target.id, self.classify(node.iter))
                elif isinstance(node, (ast.With, ast.AsyncWith)):
                    for item in node.items:
                        vars_ = item.optional_vars
                        if isinstance(vars_, ast.Name):
                            self._bind(vars_.id, "unknown")

    def _bind(self, name: str, verdict: str) -> None:
        if name.startswith("param:"):  # pragma: no cover - defensive
            return
        previous = self.env.get(name)
        if previous is None or previous == verdict:
            self.env[name] = verdict
        else:
            self.env[name] = "unknown"

    def classify(self, node: ast.AST) -> str:
        if isinstance(node, ast.Constant):
            return "owned"
        if isinstance(node, ast.Name):
            return self.env.get(node.id, "unknown")
        if isinstance(node, ast.Starred):
            return "unknown"
        if isinstance(node, ast.Subscript):
            return self.classify(node.value)  # a slice views its base
        if isinstance(node, ast.Attribute):
            if node.attr == "T":
                return self.classify(node.value)
            return "unknown"
        if isinstance(node, (ast.BinOp, ast.Compare)):
            return "owned"  # array arithmetic allocates its result
        if isinstance(node, ast.UnaryOp):
            return "owned"
        if isinstance(node, ast.IfExp):
            a = self.classify(node.body)
            b = self.classify(node.orelse)
            return a if a == b else "unknown"
        if isinstance(node, ast.BoolOp):
            verdicts = {self.classify(v) for v in node.values}
            return verdicts.pop() if len(verdicts) == 1 else "unknown"
        if isinstance(node, ast.Call):
            return self._classify_call(node)
        return "unknown"

    def _classify_call(self, node: ast.Call) -> str:
        func = node.func
        if isinstance(func, ast.Attribute):
            if func.attr in _OWNED_METHODS:
                return "owned"
            if func.attr in _VIEW_METHODS:
                return self.classify(func.value)
        callee = self._imports.resolve(dotted_name(func))
        if callee is None:
            return "unknown"
        parts = callee.split(".")
        if callee in _FRESH_SCALARS:
            return "owned"
        if parts[0] == "numpy":
            leaf = parts[-1]
            if leaf in _NP_VIEWING:
                return self.classify(node.args[0]) if node.args else "unknown"
            for keyword in node.keywords:
                if keyword.arg == "out":
                    return self.classify(keyword.value)
            if leaf in _NP_FRESH:
                return "owned"
            # Any other numpy call without out= returns a fresh result.
            return "owned"
        return "unknown"


def _is_shm_create(node: ast.Call, callee: Optional[str]) -> bool:
    if callee is None or callee.split(".")[-1] != "SharedMemory":
        return False
    for keyword in node.keywords:
        if keyword.arg == "create":
            value = keyword.value
            return isinstance(value, ast.Constant) and value.value is True
    return False


def _registry_declarations(file: SourceFile) -> List[Dict[str, Any]]:
    """``COUNTERS``/``GAUGES``/``EVENTS`` string literals with lines."""
    kinds = {"COUNTERS": "counter", "GAUGES": "gauge", "EVENTS": "event"}
    declarations: List[Dict[str, Any]] = []
    for node in file.tree.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        for target in targets:
            if not (isinstance(target, ast.Name) and target.id in kinds):
                continue
            kind = kinds[target.id]
            for sub in file.index.within(value, ast.Constant):
                if isinstance(sub.value, str):
                    declarations.append(
                        {"kind": kind, "name": sub.value, "line": sub.lineno}
                    )
    return declarations


def _is_registry_file(path: str) -> bool:
    parts = pathlib.PurePath(path).parts
    return (
        len(parts) >= 2
        and parts[-1] == "metric_names.py"
        and parts[-2] == "obs"
    )




class _Extractor:
    """Every fact of one file, read off its index; see :func:`extract_facts`."""

    def __init__(self, file: SourceFile) -> None:
        self.index: FileIndex = file.index
        self.imports: ImportTable = file.imports
        self.functions: List[Dict[str, Any]] = []
        self.classes: List[Dict[str, Any]] = []
        self.calls: List[Dict[str, Any]] = []
        self.argsites: List[Dict[str, Any]] = []
        self.rl001: List[Dict[str, Any]] = []
        self.rl003_mut: List[Dict[str, Any]] = []
        self.rl003_io: List[Dict[str, Any]] = []
        self.rl003_import: List[Dict[str, Any]] = []
        self.uses: List[Dict[str, Any]] = []
        self.shm: List[Dict[str, Any]] = []
        self._context: Dict[ast.AST, _Context] = {file.tree: (None, None, None)}
        self._ownership: Dict[ast.AST, _Ownership] = {}
        self._creations: Dict[ast.AST, List[ast.Call]] = {}

    def run(self) -> None:
        self._collect_scopes()
        for node in self.index.of(ast.Import, ast.ImportFrom):
            self._record_import(node)
        for node in self.index.of(ast.Call):
            self._record_call(node)
        for func, creations in self._creations.items():
            self._collect_shm(func, creations)

    # -- scopes: functions, classes, mutation candidates -------------------

    def _collect_scopes(self) -> None:
        index = self.index
        defs = index.of(ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        for node in defs:  # source order: enclosing scopes come first
            owner, cls, outer = self._context[index.scope_of(node)]
            if isinstance(node, ast.ClassDef):
                if owner is None:
                    self.classes.append(self._class_facts(node))
                    context: _Context = (None, node.name, None)
                else:
                    context = (owner, None, outer)
                self._context[node] = context
                continue
            if owner is None:
                owner = f"{cls}.{node.name}" if cls else node.name
                outer = node
                self.functions.append(
                    {
                        "qual": owner,
                        "name": node.name,
                        "cls": cls,
                        "line": node.lineno,
                        "public": not node.name.startswith("_"),
                        "params": [
                            a.arg for a in node.args.posonlyargs + node.args.args
                        ],
                    }
                )
            self._context[node] = (owner, None, outer)
            self._collect_mutations(node, owner)

    def _collect_mutations(self, func: ast.AST, owner: str) -> None:
        tracked = _parameter_names(func)
        if not tracked:
            return
        index = self.index
        tracked -= _rebound_names(index.within(func, *REBINDING_NODES))
        if not tracked:
            return
        params = [a.arg for a in func.args.posonlyargs + func.args.args]
        for sub in index.within(func, ast.Assign, ast.AugAssign):
            augmented = isinstance(sub, ast.AugAssign)
            for target in [sub.target] if augmented else sub.targets:
                base = (
                    target
                    if augmented and isinstance(target, ast.Name)
                    else _subscript_base(target)
                )
                if base is None or base.id not in tracked:
                    continue
                kind = "augmented-assigns to" if augmented else "writes into"
                self.rl003_mut.append(
                    {
                        "owner": owner,
                        "func": func.name,
                        "private": func.name.startswith("_"),
                        "param": base.id,
                        "index": (
                            params.index(base.id) if base.id in params else -1
                        ),
                        "line": sub.lineno,
                        "col": sub.col_offset,
                        "message": (
                            f"kernel {func.name!r} {kind} parameter "
                            f"{base.id!r}; parameter arrays may be "
                            "read-only shared-memory views and must "
                            "never be mutated"
                        ),
                    }
                )

    def _class_facts(self, node: ast.ClassDef) -> Dict[str, Any]:
        index = self.index
        methods = []
        init_params: List[str] = []
        attr_by_param: Dict[str, str] = {}
        unlink_methods: List[Dict[str, Any]] = []
        for child in node.body:
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            methods.append(child.name)
            if child.name == "__init__":
                init_params = [
                    a.arg for a in child.args.posonlyargs + child.args.args
                ]
                for stmt in index.within(child, ast.Assign):
                    if not isinstance(stmt.value, ast.Name):
                        continue
                    for target in stmt.targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            attr_by_param[stmt.value.id] = target.attr
            if child.name in ("unlink", "close", "__exit__"):
                attrs = sorted(
                    {
                        sub.attr
                        for sub in index.within(child, ast.Attribute)
                        if isinstance(sub.value, ast.Name)
                        and sub.value.id == "self"
                    }
                )
                has_unlink = any(
                    isinstance(sub.func, ast.Attribute)
                    and sub.func.attr == "unlink"
                    for sub in index.within(child, ast.Call)
                )
                unlink_methods.append(
                    {"name": child.name, "attrs": attrs, "unlinks": has_unlink}
                )
        return {
            "name": node.name,
            "line": node.lineno,
            "methods": methods,
            "init_params": init_params,
            "attr_by_param": attr_by_param,
            "unlink_methods": unlink_methods,
        }

    # -- imports -----------------------------------------------------------

    def _record_import(self, node: ast.AST) -> None:
        if isinstance(node, ast.Import):
            banned = [
                alias.name
                for alias in node.names
                if alias.name.split(".")[0] == "multiprocessing"
            ]
            what = "imports"
        else:
            banned = (
                [node.module]
                if (node.module or "").split(".")[0] == "multiprocessing"
                else []
            )
            what = "imports from"
        for name in banned:
            self.rl003_import.append(
                {
                    "line": node.lineno,
                    "col": node.col_offset,
                    "message": (
                        f"kernel module {what} {name!r}; kernels run inside "
                        "pool workers and must not spawn or coordinate "
                        "processes"
                    ),
                }
            )

    # -- calls -------------------------------------------------------------

    def _record_call(self, node: ast.Call) -> None:
        scope = self.index.scope_of(node)
        owner, cls, outer = self._context[scope]
        if cls is None and owner is not None and "." in owner:
            cls = owner.split(".")[0]
        func = node.func
        dotted = dotted_name(func)
        resolved = self.imports.resolve(dotted)
        self._record_call_edge(node, func, dotted, resolved, owner, cls)
        if resolved is not None:
            message = determinism_violation(resolved)
            if message is not None:
                self.rl001.append(
                    {
                        "caller": owner,
                        "line": node.lineno,
                        "col": node.col_offset,
                        "message": message,
                    }
                )
            if resolved in _IO_CALLS or resolved.startswith(_IO_PREFIXES):
                self.rl003_io.append(
                    {
                        "caller": owner,
                        "line": node.lineno,
                        "col": node.col_offset,
                        "message": (
                            f"kernel performs I/O via {resolved}(); kernels "
                            "must be pure functions of their array arguments"
                        ),
                    }
                )
            if outer is not None:
                self._record_argsite(node, resolved, owner, outer)
            if scope is outer and _is_shm_create(node, resolved):
                # Only an outermost function's own creations are tracked.
                self._creations.setdefault(outer, []).append(node)
        self._record_metric_use(node, dotted)

    def _record_call_edge(
        self,
        node: ast.Call,
        func: ast.AST,
        dotted: Optional[str],
        resolved: Optional[str],
        owner: Optional[str],
        cls: Optional[str],
    ) -> None:
        aliases = self.imports.aliases
        edge: Optional[Dict[str, Any]] = None
        if dotted is not None:
            parts = dotted.split(".")
            head = parts[0]
            if head == "self" and len(parts) == 2 and cls:
                edge = {"kind": "self", "method": parts[1], "cls": cls}
            elif len(parts) == 1 or head in aliases:
                edge = {"kind": "exact", "target": resolved}
            elif parts[-1] not in GENERIC_METHODS:
                edge = {"kind": "dyn", "method": parts[-1]}
        elif isinstance(func, ast.Attribute):
            if func.attr not in GENERIC_METHODS:
                edge = {"kind": "dyn", "method": func.attr}
        if edge is not None:
            edge["caller"] = owner
            edge["line"] = node.lineno
            self.calls.append(edge)
        # Function references handed as arguments (pool.submit(f, ...),
        # callbacks) are edges too: the callee runs where the receiver
        # decides, which for worker-plane code means inside the worker.
        # Only names that can plausibly denote a function survive: bare
        # names (resolved against this module's functions at project
        # time) and dotted names rooted in an import.
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            if not isinstance(arg, (ast.Name, ast.Attribute)):
                continue
            arg_dotted = dotted_name(arg)
            if arg_dotted is None:
                continue
            if "." in arg_dotted and arg_dotted.split(".")[0] not in aliases:
                continue  # attribute of a local object, not a function ref
            self.calls.append(
                {
                    "kind": "ref",
                    "target": self.imports.resolve(arg_dotted),
                    "caller": owner,
                    "line": node.lineno,
                }
            )

    def _record_metric_use(self, node: ast.Call, dotted: Optional[str]) -> None:
        if not node.args:
            return
        first = node.args[0]
        if not (isinstance(first, ast.Constant) and isinstance(first.value, str)):
            return
        kind: Optional[str] = None
        if dotted is not None and _API_KINDS.get(dotted.split(".")[-1]):
            kind = _API_KINDS[dotted.split(".")[-1]]
        elif _is_bus_emit(node):
            kind = "event"
        if kind is not None:
            self.uses.append(
                {
                    "kind": kind,
                    "name": first.value,
                    "line": node.lineno,
                    "col": node.col_offset,
                }
            )

    def _record_argsite(
        self, node: ast.Call, resolved: str, owner: str, outer: ast.AST
    ) -> None:
        if not resolved.split(".")[-1].startswith("_"):
            return  # ownership exemption only ever applies to private helpers
        if not (node.args or node.keywords):
            return
        ownership = self._ownership.get(outer)
        if ownership is None:
            bindings = self.index.within(outer, *_OWNERSHIP_BINDINGS)
            ownership = _Ownership(outer, bindings, self.imports)
            self._ownership[outer] = ownership
        args = [ownership.classify(arg) for arg in node.args]
        kwargs = {
            kw.arg: ownership.classify(kw.value)
            for kw in node.keywords
            if kw.arg is not None
        }
        starred = any(isinstance(arg, ast.Starred) for arg in node.args) or any(
            kw.arg is None for kw in node.keywords
        )
        self.argsites.append(
            {
                "caller": owner,
                "callee": resolved,
                "args": args,
                "kwargs": kwargs,
                "starred": starred,
                "line": node.lineno,
            }
        )

    # -- shared-memory creation shapes -------------------------------------

    def _own(self, func: ast.AST, *types: type) -> Iterable[ast.AST]:
        """Nodes of ``types`` in ``func``'s own scope (nested defs excluded)."""
        index = self.index
        return (n for n in index.within(func, *types) if index.scope_of(n) is func)

    def _collect_shm(self, func: ast.AST, creations: List[ast.Call]) -> None:
        """Ownership records for ``SharedMemory`` creations in ``func``'s scope."""
        managed = [
            item.context_expr
            for node in self._own(func, ast.With, ast.AsyncWith)
            for item in node.items
            if isinstance(item.context_expr, ast.Call)
        ]
        finally_unlink = any(
            _is_unlink(call, None)
            for node in self._own(func, ast.Try)
            for stmt in node.finalbody
            for call in self.index.within(stmt, ast.Call)
        )
        assigned = {
            node.value: node.targets
            for node in self._own(func, ast.Assign)
            if isinstance(node.value, ast.Call)
        }
        for call in creations:
            targets = assigned.get(call)
            var = (
                targets[0].id
                if targets is not None
                and len(targets) == 1
                and isinstance(targets[0], ast.Name)
                else None
            )
            record: Dict[str, Any] = {
                "scope": self._context[func][0],
                "line": call.lineno,
                "col": call.col_offset,
                "var": var,
                "managed": call in managed,
                "finally_unlink": finally_unlink,
                "error_unlink": False,
                "returned_bare": False,
                "transfers": [],
            }
            if var is not None:
                self._track_segment(record, func, call, var)
            self.shm.append(record)

    def _track_segment(
        self, record: Dict[str, Any], func: ast.AST, creation: ast.Call, var: str
    ) -> None:
        """Error-path unlinks, bare returns and hand-offs of segment ``var``."""
        record["error_unlink"] = any(
            _is_unlink(call, var)
            for handler in self._own(func, ast.ExceptHandler)
            for call in self.index.within(handler, ast.Call)
        )
        record["returned_bare"] = any(
            isinstance(node.value, ast.Name) and node.value.id == var
            for node in self._own(func, ast.Return)
        )
        for node in self._own(func, ast.Call):
            if node is creation:
                continue
            callee = self.imports.resolve_call(node)
            if callee is None:
                continue
            bindings = [(i, None, arg) for i, arg in enumerate(node.args)] + [
                (None, kw.arg, kw.value) for kw in node.keywords if kw.arg is not None
            ]
            for index, keyword, value in bindings:
                if isinstance(value, ast.Name) and value.id == var:
                    record["transfers"].append(
                        {
                            "callee": callee,
                            "index": index,
                            "kw": keyword,
                            "line": node.lineno,
                        }
                    )


def _is_unlink(call: ast.Call, var: Optional[str]) -> bool:
    """Whether ``call`` is ``<x>.unlink()`` (``x`` named ``var`` if given)."""
    func = call.func
    if not (isinstance(func, ast.Attribute) and func.attr == "unlink"):
        return False
    return var is None or (isinstance(func.value, ast.Name) and func.value.id == var)


def extract_facts(file: SourceFile) -> Dict[str, Any]:
    """The complete fact record for one parsed file."""
    extractor = _Extractor(file)
    extractor.run()
    # A bare-name ref can only denote one of this module's own functions;
    # drop the ones that don't (ordinary variables passed as arguments).
    local_functions = {f["name"] for f in extractor.functions}
    calls = [
        call
        for call in extractor.calls
        if not (
            call["kind"] == "ref"
            and "." not in call["target"]
            and call["target"] not in local_functions
        )
    ]
    return {
        "path": file.path,
        "module": file.module,
        "imports": extractor.imports.imported,
        "functions": extractor.functions,
        "classes": extractor.classes,
        "calls": calls,
        "argsites": extractor.argsites,
        "rl001": extractor.rl001,
        "rl003_mut": extractor.rl003_mut,
        "rl003_io": extractor.rl003_io,
        "rl003_import": extractor.rl003_import,
        "uses": extractor.uses,
        "decls": _registry_declarations(file) if _is_registry_file(file.path) else [],
        "shm": extractor.shm,
    }
