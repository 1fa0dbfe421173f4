"""RL010 — shm ownership escape: every created segment provably unlinks.

Outside the owner modules (``core/engine.py``, ``core/shm.py``) RL008
forbids building a ``SharedMemory`` at all.  Inside them, segments are
built on purpose, and their legitimate pattern is *ownership transfer*:
``share_context`` creates a segment, guards the fill with an
unlink-on-error handler, then hands the segment to
``SharedSiteContext``, whose ``unlink()``/``__exit__`` releases it.  A file-local rule cannot see that the receiving class really does
unlink, so this project rule follows the transfer and demands proof.  For
every ``SharedMemory(create=True)`` in an owner module, at least one of:

* the creation is ``with``-managed, or
* the creating function unlinks it in a ``finally``, or
* the creation is guarded by an error-path ``<segment>.unlink()`` **and**
  the segment is passed to a constructor of a project class that stores
  it (``self._x = segment`` in ``__init__``) and whose
  ``unlink``/``close``/``__exit__`` reaches ``.unlink()`` through that
  attribute — a *documented owner*.

Anything else — a bare ``return segment``, a transfer to a class that
never unlinks, a creation with no error guard — escapes ownership and is
flagged at the creation site.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator

from ..findings import Finding
from .base import ProjectRule

#: Module-name suffixes whose shm creations this rule polices.
OWNER_MODULE_SUFFIXES = ("core.engine", "core.shm")


def is_owner_module(module: str) -> bool:
    """Whether ``module`` is one RL010 polices for shm."""
    # Suffix match spelled inline (not via graph.facts.module_matches):
    # the graph package imports the rules package for its shared
    # classifiers, so this module must not import it back at load time.
    return any(
        module == suffix or module.endswith("." + suffix)
        for suffix in OWNER_MODULE_SUFFIXES
    )


class ShmOwnershipRule(ProjectRule):
    code = "RL010"
    name = "shm-ownership"
    description = (
        "SharedMemory segments created in owner modules must be "
        "with-managed, finally-unlinked, or provably transferred to a "
        "class that unlinks them"
    )

    def check_project(self, project) -> Iterator[Finding]:
        for module, facts in project.modules.items():
            if not is_owner_module(module):
                continue
            for record in facts["shm"]:
                problem = self._ownership_gap(project, module, record)
                if problem is not None:
                    yield self.project_finding(
                        facts["path"], record["line"], record["col"], problem
                    )

    def _ownership_gap(
        self, project, module: str, record: Dict[str, Any]
    ) -> "str | None":
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
