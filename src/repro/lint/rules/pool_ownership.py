"""RL008 — pool ownership: only the engine layer builds pools and segments.

The sweep engine concentrates every ``ProcessPoolExecutor`` and
``SharedMemory`` lifecycle in two modules: ``core/engine.py`` owns the
worker pool (construction, rebuild on ``BrokenProcessPool``, shutdown)
and ``core/shm.py`` owns the shared trace plane (create/attach/unlink).
That concentration is what makes the resilience story auditable — fault
injection, rebuild-on-break, and segment cleanup only have to be proven
once.  This project rule checks both halves of the contract:

* **outside the owner modules** (module names ending ``core.engine`` or
  ``core.shm``), constructing either class at all is a finding — a call
  whose resolved callee is one of them, not imports or annotations, so
  type hints and ``BrokenProcessPool`` handling elsewhere stay legal;
* **inside them**, every ``SharedMemory(create=True)`` must provably
  unlink.  Either the creation is ``with``-managed, or the creating
  function unlinks it in a ``finally``, or the creation is guarded by
  an error-path ``<segment>.unlink()`` **and** the segment is passed to
  a constructor of a project class that stores it (``self._x = segment``
  in ``__init__``) and whose ``unlink``/``close``/``__exit__`` reaches
  ``.unlink()`` through that attribute — a *documented owner*, as
  ``share_context`` hands its segment to ``SharedSiteContext``.  A bare
  ``return segment``, a transfer to a class that never unlinks, or a
  creation with no error guard escapes ownership and is flagged at the
  creation site.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Optional

from ..findings import Finding
from ..graph.facts import module_matches
from .base import ProjectRule

#: Module-name suffixes of the owner modules.
OWNER_MODULES = ("core.engine", "core.shm")


class PoolOwnershipRule(ProjectRule):
    code = "RL008"
    name = "pool-ownership"
    description = (
        "ProcessPoolExecutor/SharedMemory are constructed only in "
        "core/engine.py and core/shm.py, where every created segment is "
        "with-managed, finally-unlinked, or handed to a class that "
        "unlinks it"
    )

    def check_project(self, project) -> Iterator[Finding]:
        for module, facts in project.modules.items():
            if not any(module_matches(module, owner) for owner in OWNER_MODULES):
                for site in facts["pools"]:
                    yield self.project_finding(
                        facts["path"],
                        site["line"],
                        site["col"],
                        f"{site['cls']} constructed outside the sweep-engine "
                        "layer; pool and segment lifecycles are owned by "
                        "core/engine.py and core/shm.py — route through "
                        "SweepEngine or the repro.core.shm helpers instead",
                    )
                continue
            for record in facts["shm"]:
                problem = self._ownership_gap(project, module, record)
                if problem is not None:
                    yield self.project_finding(
                        facts["path"], record["line"], record["col"], problem
                    )

    def _ownership_gap(
        self, project, module: str, record: Dict[str, Any]
    ) -> Optional[str]:
        if record["managed"] or record["finally_unlink"]:
            return None
        if record["var"] is None:
            return (
                "SharedMemory(create=True) result is not bound to a name; "
                "the segment can never be unlinked"
            )
        var = record["var"]
        if record["returned_bare"]:
            return (
                f"segment {var!r} is returned bare from "
                f"{record['scope']!r}; ownership escapes with no "
                "documented owner to unlink it"
            )
        if not record["error_unlink"]:
            return (
                f"segment {var!r} has no error-path {var}.unlink(): an "
                "exception between create and transfer leaks the segment"
            )
        for transfer in record["transfers"]:
            if self._transfer_verified(project, module, transfer):
                return None
        return (
            f"segment {var!r} is never with-managed, finally-unlinked, or "
            "handed to a class that provably unlinks it"
        )

    @staticmethod
    def _transfer_verified(
        project, module: str, transfer: Dict[str, Any]
    ) -> bool:
        cls = project.resolve_class(module, transfer["callee"])
        if cls is None:
            return False
        if transfer["kw"] is not None:
            param = transfer["kw"]
        else:
            # ``init_params`` includes ``self`` at position 0.
            index = transfer["index"] + 1
            if index >= len(cls["init_params"]):
                return False
            param = cls["init_params"][index]
        attr = cls["attr_by_param"].get(param)
        if attr is None:
            return False
        return any(
            method["unlinks"] and attr in method["attrs"]
            for method in cls["unlink_methods"]
        )
