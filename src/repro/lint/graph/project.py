"""The whole-program model: module graph, call graph, reachability.

A :class:`Project` is built from the per-file fact records of every
linted file.  It answers the questions the graph-aware rules ask:

* **Module graph** — which project modules import which.
* **Call graph** — name-resolution edges: exact calls through import
  aliases (``shm.attach_context(...)``), bare local calls, ``self``
  method calls, conservative dynamic-dispatch edges (``x.evaluate()``
  reaches every project method named ``evaluate`` in the candidate
  pool), constructor edges, and function-reference edges
  (``pool.submit(_evaluate_chunk, ...)``).
* **Reachability universes** — the *worker universe* is the call-graph
  closure of the real pool entry points (``_init_worker`` /
  ``_evaluate_chunk`` in a ``core.engine`` module); the *kernel
  universe* seeds from every function defined in a ``kernels`` module
  and closes over their callees.  The ``obs`` package is a documented
  telemetry barrier: edges into it are not followed (the tracer
  legitimately reads the wall clock; telemetry feeds no result).
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from .facts import GENERIC_METHODS, module_matches

#: Module-name component that marks the telemetry barrier.
OBS_BARRIER = "obs"

#: Module-name suffix whose ``_init_worker``/``_evaluate_chunk`` are the
#: worker-universe roots.
WORKER_ROOT_MODULE = "core.engine"

#: Names of the worker-universe root functions.
WORKER_ROOTS = frozenset({"_init_worker", "_evaluate_chunk"})

#: Module-name component that seeds the kernel universe.
KERNELS_COMPONENT = "kernels"

#: A function's identity in the call graph.
FuncId = Tuple[str, str]  # (module name, qualname)


class Project:
    """Index over every linted file's facts; see the module docstring."""

    def __init__(self, facts_by_path: Dict[str, Dict[str, Any]]) -> None:
        self.modules: Dict[str, Dict[str, Any]] = {}
        for facts in facts_by_path.values():
            self.modules[facts["module"]] = facts
        self._functions: Dict[FuncId, Dict[str, Any]] = {}
        self._classes: Dict[Tuple[str, str], Dict[str, Any]] = {}
        self._methods_by_name: Dict[str, List[FuncId]] = {}
        for name, facts in self.modules.items():
            for func in facts["functions"]:
                fid = (name, func["qual"])
                self._functions[fid] = func
                if func["cls"] is not None:
                    self._methods_by_name.setdefault(func["name"], []).append(
                        fid
                    )
            for cls in facts["classes"]:
                self._classes[(name, cls["name"])] = cls
        self._import_edges = self._build_import_edges()
        self._worker_cache: Optional[
            Tuple[FrozenSet[str], FrozenSet[FuncId]]
        ] = None
        self._kernel_cache: Optional[
            Tuple[FrozenSet[str], FrozenSet[FuncId]]
        ] = None

    # -- module graph ------------------------------------------------------

    def _build_import_edges(self) -> Dict[str, Set[str]]:
        edges: Dict[str, Set[str]] = {name: set() for name in self.modules}
        for name, facts in self.modules.items():
            for imp in facts["imports"]:
                base = imp["module"]
                if base in self.modules:
                    edges[name].add(base)
                for sub in imp.get("names", ()):
                    candidate = f"{base}.{sub}"
                    if candidate in self.modules:
                        edges[name].add(candidate)
        return edges

    def imports_of(self, module: str) -> Set[str]:
        return self._import_edges.get(module, set())

    def import_closure(
        self, roots: Iterable[str], barrier: str = OBS_BARRIER
    ) -> Set[str]:
        """Project modules importable from ``roots``, stopping at the barrier."""
        frontier = [m for m in roots if m in self.modules]
        seen: Set[str] = set(frontier)
        while frontier:
            module = frontier.pop()
            for target in self._import_edges.get(module, ()):
                if barrier in target.split("."):
                    continue
                if target not in seen:
                    seen.add(target)
                    frontier.append(target)
        return seen

    # -- call graph --------------------------------------------------------

    def resolve_function(
        self, module: str, target: str
    ) -> Optional[FuncId]:
        """Resolve a dotted callee seen in ``module`` to a project function.

        Bare names resolve against the module's own functions; dotted
        names are split at the longest project-module prefix.  Class
        names resolve to their ``__init__`` (constructor edge).
        """
        if "." not in target:
            fid = (module, target)
            if fid in self._functions:
                return fid
            if (module, target) in self._classes:
                init = (module, f"{target}.__init__")
                return init if init in self._functions else None
            return None
        parts = target.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            prefix = ".".join(parts[:cut])
            if prefix not in self.modules:
                continue
            rest = parts[cut:]
            if len(rest) == 1:
                fid = (prefix, rest[0])
                if fid in self._functions:
                    return fid
                if (prefix, rest[0]) in self._classes:
                    init = (prefix, f"{rest[0]}.__init__")
                    return init if init in self._functions else None
            elif len(rest) == 2:
                fid = (prefix, f"{rest[0]}.{rest[1]}")
                if fid in self._functions:
                    return fid
            return None
        return None

    def resolve_class(
        self, module: str, target: str
    ) -> Optional[Dict[str, Any]]:
        """Class facts for a dotted callee seen in ``module``, if any."""
        if "." not in target:
            return self._classes.get((module, target))
        parts = target.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            prefix = ".".join(parts[:cut])
            if prefix in self.modules and len(parts) - cut == 1:
                return self._classes.get((prefix, parts[cut]))
        return None

    def _edges_from(
        self, fid: FuncId, pool: FrozenSet[str]
    ) -> Iterable[FuncId]:
        module, qual = fid
        facts = self.modules.get(module)
        if facts is None:
            return
        for call in facts["calls"]:
            if call["caller"] != qual:
                continue
            yield from self._edge_targets(module, call, pool)

    def _module_level_edges(
        self, module: str, pool: FrozenSet[str]
    ) -> Iterable[FuncId]:
        facts = self.modules.get(module)
        if facts is None:
            return
        for call in facts["calls"]:
            if call["caller"] is None:
                yield from self._edge_targets(module, call, pool)

    def _edge_targets(
        self, module: str, call: Dict[str, Any], pool: FrozenSet[str]
    ) -> Iterable[FuncId]:
        kind = call["kind"]
        if kind in ("exact", "ref"):
            target = self.resolve_function(module, call["target"])
            if target is not None and self._in_pool(target[0], pool):
                yield target
        elif kind == "self":
            fid = (module, f"{call['cls']}.{call['method']}")
            if fid in self._functions:
                yield fid
        elif kind == "dyn":
            method = call["method"]
            if method in GENERIC_METHODS:
                return
            for fid in self._methods_by_name.get(method, ()):
                if self._in_pool(fid[0], pool):
                    yield fid

    @staticmethod
    def _in_pool(module: str, pool: FrozenSet[str]) -> bool:
        if OBS_BARRIER in module.split("."):
            return False
        return not pool or module in pool

    def _closure(
        self, seeds: Iterable[FuncId], pool: FrozenSet[str]
    ) -> FrozenSet[FuncId]:
        frontier = [fid for fid in seeds if fid in self._functions]
        seen: Set[FuncId] = set(frontier)
        while frontier:
            fid = frontier.pop()
            for target in self._edges_from(fid, pool):
                if target not in seen:
                    seen.add(target)
                    frontier.append(target)
        return frozenset(seen)

    # -- reachability universes --------------------------------------------

    def worker_universe(self) -> Tuple[FrozenSet[str], FrozenSet[FuncId]]:
        """``(modules, functions)`` a pool worker can execute.

        Modules: the import closure of every ``core.engine`` module that
        defines a worker root — their top-level code runs at worker
        import time.  Functions: the call-graph closure of the roots,
        with dynamic-dispatch candidates confined to the import closure
        (a worker cannot call a method on an object whose class it
        cannot import), plus the module-level pseudo-edges of closure
        modules.
        """
        if self._worker_cache is not None:
            return self._worker_cache
        root_modules = [
            name
            for name, facts in self.modules.items()
            if module_matches(name, WORKER_ROOT_MODULE)
            and any(
                f["cls"] is None and f["name"] in WORKER_ROOTS
                for f in facts["functions"]
            )
        ]
        modules = frozenset(self.import_closure(root_modules))
        seeds = [
            (name, f["qual"])
            for name in root_modules
            for f in self.modules[name]["functions"]
            if f["cls"] is None and f["name"] in WORKER_ROOTS
        ]
        # Module-level code of closure modules runs in the worker at
        # import; the functions it calls are live there too.
        for module in modules:
            seeds.extend(self._module_level_edges(module, modules))
        functions = self._closure(seeds, modules)
        self._worker_cache = (modules, functions)
        return self._worker_cache

    def kernel_universe(self) -> Tuple[FrozenSet[str], FrozenSet[FuncId]]:
        """``(kernel modules, functions)`` in the kernel universe.

        Every function *defined in* a ``kernels`` module is a seed (the
        public ones are the entry points the engine dispatches to; the
        private ones are helpers whose callers may live outside the
        linted set, as the poisoned-kernel acceptance test demands),
        closed over callees within the kernels' import closure.
        """
        if self._kernel_cache is not None:
            return self._kernel_cache
        kernel_modules = [
            name
            for name in self.modules
            if KERNELS_COMPONENT in name.split(".")
        ]
        pool = frozenset(self.import_closure(kernel_modules))
        seeds = [
            (name, f["qual"])
            for name in kernel_modules
            for f in self.modules[name]["functions"]
        ]
        functions = self._closure(seeds, pool)
        self._kernel_cache = (frozenset(kernel_modules), functions)
        return self._kernel_cache

    # -- ownership fixpoint (RL003 exemptions) ------------------------------

    def owned_params(self) -> Set[Tuple[str, str, str]]:
        """``(module, function name, param)`` triples proven caller-owned.

        A private function's parameter is exempt from the RL003 mutation
        ban when every project call site that binds it passes provably
        caller-owned scratch (fresh allocations, views of owned arrays,
        fresh scalars) — directly, or through another exempt parameter
        (greatest fixpoint over the call graph).  Functions with no
        project call sites keep their candidates: their callers are
        unknown.
        """
        sites: Dict[Tuple[str, str], List[Tuple[str, Dict[str, Any]]]] = {}
        for name, facts in self.modules.items():
            for site in facts["argsites"]:
                resolved = self.resolve_function(name, site["callee"])
                if resolved is None or "." in resolved[1]:
                    continue  # methods are out of scope for ownership
                sites.setdefault(resolved, []).append((name, site))
        # Domain: every parameter of every called private module-level
        # function — not just mutation candidates, because exemption of
        # a mutating helper may hinge on a *forwarding* helper's param.
        params_of: Dict[Tuple[str, str], List[str]] = {}
        for name, facts in self.modules.items():
            for func in facts["functions"]:
                if func["cls"] is None and not func["public"]:
                    if (name, func["name"]) in sites:
                        params_of[(name, func["name"])] = func["params"]
        # Optimistic start: everything owned; demote until stable.
        owned: Set[Tuple[str, str, str]] = {
            (module, func, param)
            for (module, func), params in params_of.items()
            for param in params
        }
        changed = True
        while changed:
            changed = False
            for module, func, param in list(owned):
                index = params_of[(module, func)].index(param)
                for caller_module, site in sites[(module, func)]:
                    verdict = self._binding_verdict(site, param, index)
                    if verdict in ("owned", "unbound"):
                        continue
                    if verdict.startswith("param:"):
                        caller = site["caller"]
                        caller_param = verdict.split(":", 1)[1]
                        if caller is not None and (
                            caller_module,
                            caller,
                            caller_param,
                        ) in owned:
                            continue
                    owned.discard((module, func, param))
                    changed = True
                    break
        return owned

    @staticmethod
    def _binding_verdict(
        site: Dict[str, Any], param: str, index: int
    ) -> str:
        if site.get("starred"):
            return "unknown"  # *args/**kwargs binding is opaque
        if param in site["kwargs"]:
            return site["kwargs"][param]
        if index < len(site["args"]):
            return site["args"][index]
        return "unbound"  # default value binds: callee-owned constant
