"""RL001 — determinism: no wall-clock or global-RNG calls in sweep code.

Every reproduced figure rests on sweeps being bitwise deterministic:
serial == parallel == shared-memory == resumed-from-checkpoint, and the
checkpoint fingerprint is a pure function of (site, seed, space,
strategy).  A single ``time.time()`` or unseeded ``random``/``np.random``
global-state call inside worker-reachable code silently breaks all four
equalities.

This is a *project* rule: instead of guessing which directories a worker
can reach, it asks the :class:`~repro.lint.graph.Project` for the real
reachability universes — the call-graph closure of the pool entry points
(``_init_worker``/``_evaluate_window`` in ``core.engine``) and of the
kernel entry points (every function a ``kernels`` module defines).  A
wall-clock call in a function *no worker or kernel can reach* is not a
determinism hazard and is left to code review; the same call three hops
into the worker's call graph fails the build, whatever directory it
lives in.  Module-level calls are flagged when their module is in the
worker's import closure (they run at worker import time) or is a
kernels module.

The ``obs`` package is a documented barrier: the tracer/event plane
legitimately reads the wall clock, and nothing it returns feeds a
result (telemetry flows out of the sweep, never back in).  The call
classifier (:func:`repro.lint.graph.facts.determinism_violation`)
records a candidate for every such call; this rule keeps the reachable
ones.

Explicitly seeded randomness stays legal: ``np.random.default_rng(seed)``
and ``random.Random(seed)`` construct private generators and are how the
synthetic grid/demand models are *supposed* to draw their noise.
``time.sleep`` is also legal — it delays, but never feeds a result.
"""

from __future__ import annotations

from typing import Iterator

from ..findings import Finding
from .base import ProjectRule


class DeterminismRule(ProjectRule):
    code = "RL001"
    name = "determinism"
    description = (
        "no wall-clock (time.time, datetime.now) or global-state RNG "
        "(random.*, np.random.*) calls reachable from pool workers or "
        "kernels"
    )

    def check_project(self, project) -> Iterator[Finding]:
        worker_modules, worker_functions = project.worker_universe()
        kernel_modules, kernel_functions = project.kernel_universe()
        live = worker_functions | kernel_functions
        for module, facts in project.modules.items():
            path = facts["path"]
            in_worker_import = module in worker_modules
            is_kernel_module = module in kernel_modules
            for cand in facts["rl001"]:
                caller = cand["caller"]
                if caller is None:
                    # Module-level code runs when the module is imported
                    # — inside every worker for the worker closure, and
                    # at kernel import for kernels modules.
                    hit = in_worker_import or is_kernel_module
                else:
                    hit = (module, caller) in live
                if hit:
                    yield self.project_finding(
                        path, cand["line"], cand["col"], cand["message"]
                    )
