"""RL003 — kernel purity: array kernels are side-effect-free functions.

The ``kernels`` package holds the hot year loops that PR 2 proved bitwise
identical to the original object-based simulators.  That equivalence —
and the safety of sharing read-only zero-copy traces across sweep
workers (PR 4) — rests on three properties this rule enforces:

* **no parameter mutation** — a kernel never writes into an array it was
  handed (``param[...] = x``, ``param += x``, ``param[...] -= x``); the
  shared-memory trace plane maps those arrays read-only, so a mutation
  would crash under shm and silently corrupt sibling evaluations without;
* **no multiprocessing** — kernels run *inside* pool workers; nesting
  pools deadlocks and smuggles scheduling policy into numeric code;
* **no I/O** — ``open``/``print``/``input`` in a kernel means a hidden
  dependency on the filesystem or an interleaved-output mess across
  worker processes.

This is a *project* rule.  The mutation/I-O ban applies to the **kernel
universe**: every function a ``kernels`` module defines plus everything
those functions call (a helper the kernel fans out to is just as capable
of corrupting a shared trace, whatever file it lives in).  The import
ban applies to kernels modules themselves.

Rebinding a parameter name to a fresh object (``demand = demand.copy()``)
ends tracking for that name: mutations of the copy are the kernel's own
business.  Beyond that, the project phase proves **ownership
exemptions**: a *private* helper's parameter may be mutated when every
project call site passes it provably caller-owned scratch — a fresh
``np.empty``/``np.zeros`` allocation, a view of one, or a fresh scalar —
directly or through another exempt parameter (a greatest fixpoint over
the call graph).  Such scratch is by construction not a shared-memory
view, so the helper filling it in place is the whole point of passing
it.  Public kernel entry points get no exemption: their callers are
outside the analyzed world.
"""

from __future__ import annotations

from typing import Iterator

from ..findings import Finding
from .base import ProjectRule


class KernelPurityRule(ProjectRule):
    code = "RL003"
    name = "kernel-purity"
    description = (
        "kernel-reachable functions may not mutate parameter arrays "
        "(unless provably caller-owned scratch), import multiprocessing, "
        "or perform I/O"
    )

    def check_project(self, project) -> Iterator[Finding]:
        kernel_modules, kernel_functions = project.kernel_universe()
        owned = project.owned_params()
        for module, facts in project.modules.items():
            path = facts["path"]
            is_kernel_module = module in kernel_modules
            if is_kernel_module:
                for cand in facts["rl003_import"]:
                    yield self.project_finding(
                        path, cand["line"], cand["col"], cand["message"]
                    )
            for cand in facts["rl003_io"]:
                caller = cand["caller"]
                if caller is None:
                    hit = is_kernel_module
                else:
                    hit = (module, caller) in kernel_functions
                if hit:
                    yield self.project_finding(
                        path, cand["line"], cand["col"], cand["message"]
                    )
            for cand in facts["rl003_mut"]:
                if (module, cand["owner"]) not in kernel_functions:
                    continue
                if cand["private"] and (
                    module,
                    cand["func"],
                    cand["param"],
                ) in owned:
                    continue  # proven caller-owned scratch
                yield self.project_finding(
                    path, cand["line"], cand["col"], cand["message"]
                )
