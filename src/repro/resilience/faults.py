"""Worker-side chunk faults: what a fault plan injects, and how.

A :class:`~repro.resilience.domains.FleetFaultPlan` picks, per
``(site, chunk ordinal, attempt)``, one :class:`FaultAction` that tests
and CI use to exercise the sweep engine's fault tolerance end to end:

* ``kill`` — the worker process exits hard mid-chunk (``os._exit``), which
  poisons the sweep engine's whole process pool (``BrokenProcessPool``)
  exactly like a real OOM kill or segfault;
* ``delay`` — the worker sleeps before evaluating, pushing the chunk past a
  configured per-chunk stall timeout;
* ``corrupt`` — the worker returns a malformed payload (wrong element type),
  caught by :func:`repro.resilience.validate.validate_chunk_result` before
  any result is written back;
* ``shm`` — the site's shared segment cannot be attached.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from enum import Enum, unique
from typing import Iterable, Optional


@unique
class FaultKind(Enum):
    """The injectable chunk faults.

    ``KILL``/``DELAY``/``CORRUPT`` are chunk-scoped and executed by
    :func:`execute_pre_fault` / :func:`corrupt_payload` in any sweep
    worker.  ``SHM`` is site-scoped (see
    :class:`repro.resilience.domains.FleetFaultPlan`): the fleet worker
    raises :class:`~repro.core.shm.SharedContextError` before touching
    the site's segment, simulating a torn/unattachable segment;
    :func:`execute_pre_fault` ignores it.
    """

    KILL = "kill"
    DELAY = "delay"
    CORRUPT = "corrupt"
    SHM = "shm"


@dataclass(frozen=True)
class FaultAction:
    """One fault to execute inside a worker for one chunk attempt."""

    kind: FaultKind
    delay_s: float = 0.0


def execute_pre_fault(action: Optional[FaultAction]) -> None:
    """Run a fault's worker-side *pre-evaluation* effect (kill or delay)."""
    if action is None:
        return
    if action.kind is FaultKind.KILL:
        # A hard exit, not an exception: the parent sees the same
        # BrokenProcessPool a real worker crash produces.
        os._exit(1)
    if action.kind is FaultKind.DELAY:
        time.sleep(action.delay_s)


def corrupt_payload(evaluations: Iterable[object]) -> list:
    """The ``corrupt`` fault's payload: right length, wrong element type."""
    damaged = list(evaluations)
    if damaged:
        damaged[-1] = "corrupted-by-fault-plan"
    return damaged
