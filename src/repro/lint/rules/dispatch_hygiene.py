"""RL011 — dispatch-loop hygiene: the scheduler's hot loop never stalls.

``SweepEngine.dispatch`` is the one loop everything else waits on: it
feeds workers, collects results, advances deadlines, steals capacity.
Liveness there is a *global* property — one unbounded ``.result()`` and
a hung worker hangs the whole sweep instead of tripping the deadline
logic; one stray ``print`` and the loop's output interleaves with the
event-bus subscribers' (the progress ticker, ``rank --stream``).

This project rule reads the *dispatch universe* from the
:class:`~repro.lint.graph.Project` — the methods ``SweepEngine.dispatch``
reaches through ``self.*`` calls, the same call graph RL001 and RL003
read their universes from — and inside the reached methods flags (the
classifier is :func:`repro.lint.graph.facts.dispatch_stall`):

* ``future.result()`` with no timeout — blocks forever on a wedged
  worker; use ``result(timeout=...)`` (``timeout=0`` for futures already
  known done);
* ``concurrent.futures.wait(...)`` / ``as_completed(...)`` without a
  ``timeout`` — same unbounded stall, wholesale;
* ``time.sleep(x)`` with an unbounded argument — backoff must be
  tick-clamped (``_TICK_S``, ``min(delay, bound)``, or a conditional
  whose branches are both clamped) so shutdown/deadline checks stay
  responsive;
* ``open`` / ``print`` / ``input`` — blocking I/O does not belong in a
  scheduler loop; telemetry goes through the obs plane.

Methods the dispatch loop cannot reach (setup, teardown, reporting) are
exempt: ``shutdown(wait=True)`` *after* the loop exits is correct code.
"""

from __future__ import annotations

from typing import Iterator

from ..findings import Finding
from .base import ProjectRule


class DispatchHygieneRule(ProjectRule):
    code = "RL011"
    name = "dispatch-hygiene"
    description = (
        "SweepEngine's dispatch loop must not block unboundedly "
        "(.result()/wait without timeout, unclamped sleep) or perform I/O"
    )

    def check_project(self, project) -> Iterator[Finding]:
        reached = project.dispatch_universe()
        for module, facts in project.modules.items():
            for cand in facts["rl011"]:
                if (module, cand["caller"]) in reached:
                    yield self.project_finding(
                        facts["path"], cand["line"], cand["col"], cand["message"]
                    )
