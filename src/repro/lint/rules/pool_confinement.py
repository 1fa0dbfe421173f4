"""RL008 — pool confinement: only the engine layer builds pools/segments.

The sweep-engine refactor concentrated every ``ProcessPoolExecutor`` and
``SharedMemory`` lifecycle in two files: ``core/engine.py`` owns the
worker pool (construction, rebuild on ``BrokenProcessPool``, shutdown)
and ``core/shm.py`` owns the shared trace plane (create/attach/unlink).
That concentration is what makes the resilience story auditable — fault
injection, rebuild-on-break, and segment cleanup only have to be proven
once.  A pool or segment constructed anywhere else silently re-opens all
of those obligations, so this rule turns the layering into an error:
constructing either class outside the two owner files is RL008.

The rule flags *construction* (a call whose resolved callee is one of
the confined classes), not imports or annotations — type hints and
``BrokenProcessPool`` handling elsewhere remain legal.
"""

from __future__ import annotations

import ast
import pathlib
from typing import Iterator

from ..findings import Finding, SourceFile
from .base import Rule

#: Basenames of the owner modules; the exemption also requires the file
#: to live under a ``core/`` directory so fixture trees scope identically
#: to ``src/repro/core/``.
_OWNER_FILES = frozenset({"engine.py", "shm.py"})

#: Class names whose construction is confined to the owner modules.
_CONFINED = frozenset({"ProcessPoolExecutor", "SharedMemory"})


class PoolConfinementRule(Rule):
    code = "RL008"
    name = "pool-confinement"
    description = (
        "ProcessPoolExecutor/SharedMemory may only be constructed in "
        "core/engine.py and core/shm.py (the sweep-engine layer)"
    )

    def applies_to(self, file: SourceFile) -> bool:
        name = pathlib.PurePath(file.path).name
        return not (name in _OWNER_FILES and file.in_directory("core"))

    def check(self, file: SourceFile) -> Iterator[Finding]:
        for node in file.index.of(ast.Call):
            callee = file.imports.resolve_call(node)
            if callee is None:
                continue
            leaf = callee.split(".")[-1]
            if leaf not in _CONFINED:
                continue
            yield self.finding(
                file,
                node,
                f"{leaf} constructed outside the sweep-engine layer; "
                "pool and segment lifecycles are owned by core/engine.py "
                "and core/shm.py — route through SweepEngine or the "
                "repro.core.shm helpers instead",
            )
