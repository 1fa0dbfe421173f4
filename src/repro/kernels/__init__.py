"""Array-native simulation kernels for the hot year-long loops.

Design-space sweeps call the battery, scheduling, and combined simulations
thousands of times per region, so their per-call cost bounds how fine an
exhaustive grid can be.  The public modules (:mod:`repro.battery.simulator`,
:mod:`repro.scheduling.greedy`, :mod:`repro.scheduling.combined`) validate
inputs, open tracing spans, and build rich result objects — and delegate the
actual year of simulation to the kernels here.

Kernel contract:

* inputs are **raw numpy arrays** (plus plain-float spec constants hoisted
  out of the loop) — no :class:`~repro.timeseries.HourlySeries`, no
  :class:`~repro.battery.clc.Battery` objects, no per-hour validation;
* outputs are bitwise identical to the original per-hour object
  implementations (the loops replicate the exact IEEE operation order of
  :meth:`Battery.charge` / :meth:`Battery.discharge` and the greedy
  per-day scheduler);
* degenerate paths (no battery, no scheduler) are fully vectorized.

Arrays may be any length — the kernels are year-agnostic, which also makes
them cheap to property-test against the reference implementations on short
traces.
"""

from .batch import (
    CombinedRunBatch,
    ScheduleRunBatch,
    battery_run_batch,
    combined_run_batch,
    schedule_run_batch,
)
from .battery import (
    BatteryRunArrays,
    BatterySeed,
    battery_import_exceeds,
    battery_run,
    battery_run_seeded,
    renewables_only_run,
)
from .combined import CombinedRunArrays, combined_run
from .greedy import (
    ScheduleSeed,
    schedule_deficit_exceeds,
    schedule_run,
    schedule_run_seeded,
)

__all__ = [
    "BatteryRunArrays",
    "BatterySeed",
    "battery_import_exceeds",
    "battery_run",
    "battery_run_seeded",
    "renewables_only_run",
    "CombinedRunArrays",
    "combined_run",
    "ScheduleSeed",
    "schedule_deficit_exceeds",
    "schedule_run",
    "schedule_run_seeded",
    "CombinedRunBatch",
    "ScheduleRunBatch",
    "battery_run_batch",
    "combined_run_batch",
    "schedule_run_batch",
]
