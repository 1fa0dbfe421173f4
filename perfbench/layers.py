"""Outside-in layer tracing: spans recorded around calls into each layer.

The traced run wraps the public functions of each layer *where its caller
looks them up* (``repro.core.engine.evaluate_block``, not
``repro.core.evaluate.evaluate_block``: the engine imports its own
reference) and records one span per call -- name, start, end, parent --
in memory.  After the run, :func:`layer_metrics` computes each layer's
self time (duration minus the part covered by child spans) and the
``unattributed_s`` residual: the self time of the benchmark's own root
span and of the ``sweep_fleet`` entry, which belong to no layer.  Layer
self times plus ``unattributed_s`` add up to the traced sweep time by
construction.

Work done inside pool workers is not wrapped here; it arrives as the
``evaluate_chunk`` spans the engine ships to the parent when
:mod:`repro.obs` tracing is on, and is reported as worker busy time.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from typing import Any, Callable, Dict, List, Tuple

from workloads import STRATEGY_KEYS

#: (module, attribute path, span name).  A dotted attribute path patches
#: a method on a class.
PATCHES: Tuple[Tuple[str, str, str], ...] = (
    ("repro.core.explorer", "build_site_context", "context.build"),
    ("repro.core.evaluate", "SupplyProjectionCache.project", "supply.project"),
    ("repro.core.explorer", "projected_supply", "supply.project"),
    ("repro.core.engine", "evaluate_block", "evaluate"),
    ("repro.core.engine", "evaluate_design", "evaluate"),
    ("repro.core.evaluate", "evaluate_design", "evaluate"),
    ("repro.core.evaluate", "battery_run_batch", "batch.battery"),
    ("repro.core.evaluate", "schedule_run_batch", "batch.schedule"),
    ("repro.core.evaluate", "combined_run_batch", "batch.combined"),
    ("repro.battery.simulator", "battery_import_exceeds", "kernel.battery_import_exceeds"),
    ("repro.scheduling.greedy", "schedule_run", "kernel.schedule_run"),
    ("repro.battery.simulator", "battery_run", "kernel.battery_run"),
    ("repro.battery.simulator", "battery_run_seeded", "kernel.battery_run"),
    ("repro.scheduling.combined", "combined_run", "kernel.combined_run"),
    ("repro.core.explorer", "CarbonExplorer.battery_hours_for_full_coverage", "probe.battery"),
    ("repro.core.explorer", "CarbonExplorer.additional_capacity_for_full_coverage", "probe.cas"),
    ("repro.core.fleet", "sweep_fleet", "sweep_fleet"),
    ("repro.core.engine", "SweepEngine.setup", "engine.setup"),
    ("repro.core.engine", "SweepEngine.dispatch", "engine.dispatch"),
    ("repro.core.engine", "SweepEngine.cleanup", "engine.cleanup"),
    ("repro.core.engine", "share_context", "shm.share"),
    ("repro.core.engine", "sweep_fingerprint", "journal.fingerprint"),
    ("repro.core.engine", "validate_chunk_result", "validate"),
    ("repro.resilience.checkpoint", "CheckpointJournal.append_chunk", "journal.append"),
)

#: Spans that are the benchmark's own or the entry point's, not a layer:
#: their self time is the ``unattributed_s`` residual.
UNATTRIBUTED = ("run", "sweep_fleet")

#: The batched kernels, keyed by span name.
BATCH_KERNELS = ("battery", "schedule", "combined")

#: The per-design kernels, keyed by span name.
PER_DESIGN_KERNELS = ("battery_import_exceeds", "schedule_run", "battery_run", "combined_run")


class Recorder:
    """Keeps spans in memory: ``[name, parent index, start, end, info]``."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._pid = os.getpid()
        self.missing: List[str] = []

    def open(self, name: str, info: Any = None) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), 0.0, info])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # Fork-started pool workers inherit the patched modules; their
            # spans could never reach the parent, so they pass straight on.
            if os.getpid() != recorder._pid:
                return fn(*args, **kwargs)
            index = recorder.open(name, _call_info(name, args))
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.close(index)
            if name == "shm.share":
                recorder.spans[index][4] = result.handle.total_bytes
            return result

        return traced

    def install(self) -> None:
        """Patch every layer entry in :data:`PATCHES`; call once per process."""
        for module_name, path, name in PATCHES:
            owner: Any = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            setattr(owner, attr, self.wrap(name, original))


def _call_info(name: str, args: tuple) -> Any:
    """Per-call facts a layer metric needs, read from the call's arguments."""
    if name.startswith("batch."):
        supply_block = args[1]  # (demand, supply_block, ...): rows x hours
        return supply_block.shape
    if name == "sweep_fleet":
        return args[1].name  # the Strategy
    if name == "supply.project":
        # A method call passes the cache; projected_supply passes the grid.
        return "cache" if type(args[0]).__name__ == "SupplyProjectionCache" else "direct"
    return None


def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, _, start, end, _ in spans]
    for _, parent, start, end, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(
    recorder: Recorder,
    counters: Dict[str, float],
    worker_spans: List[Tuple[int, List[Dict[str, Any]]]],
    workers: int,
) -> Tuple[Dict[str, float], List[Tuple[str, float, int]]]:
    """Per-layer metrics and the self-time ledger of one traced run.

    Returns ``(metrics, ledger)`` where ``ledger`` rows are ``(layer,
    self_s, calls)`` over the timed phase, ``unattributed`` last.
    """
    spans = recorder.spans
    own = self_times(spans)
    timed = _descendants_of_root(spans, "run")

    def total(names, indices, self_time=False) -> float:
        return sum(
            own[i] if self_time else spans[i][3] - spans[i][2]
            for i in indices
            if spans[i][0] in names
        )

    def calls(names, indices) -> int:
        return sum(1 for i in indices if spans[i][0] in names)

    m: Dict[str, float] = {}
    everything = range(len(spans))
    m["context.build_s"] = total(("context.build",), everything)
    m["context.builds"] = calls(("context.build",), everything)

    m["supply.project_s"] = total(("supply.project",), timed)
    hits = counters.get("supply_cache_hits", 0.0)
    misses = counters.get("supply_cache_misses", 0.0)
    # The cache counters include pool workers; a probe's direct
    # projected_supply call bypasses the cache and is counted from spans.
    direct = sum(1 for i in timed if spans[i][0] == "supply.project" and spans[i][4] == "direct")
    m["supply.calls"] = hits + misses + direct
    m["supply.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0

    m["evaluate.self_s"] = total(("evaluate",), timed, self_time=True)
    m["evaluate.rows"] = counters.get("designs_evaluated", 0.0)
    m["evaluate.fallback_rows"] = sum(
        1
        for i in timed
        if spans[i][0] == "evaluate" and spans[spans[i][1]][0] == "evaluate"
    )
    for kernel in BATCH_KERNELS:
        name = f"batch.{kernel}"
        shapes = [spans[i][4] for i in timed if spans[i][0] == name]  # (rows, hours)
        seconds = total((name,), timed)
        cells = sum(rows * hours for rows, hours in shapes)
        m[f"{name}.s"] = seconds
        m[f"{name}.calls"] = len(shapes)
        m[f"{name}.cells"] = cells
        m[f"{name}.cells_per_s"] = cells / seconds if seconds else 0.0
    battery_rows = sum(spans[i][4][0] for i in timed if spans[i][0] == "batch.battery")
    m["batch.battery.seeded_frac"] = (
        counters.get("battery_rows_seeded", 0.0) / battery_rows if battery_rows else 0.0
    )

    for key in STRATEGY_KEYS.values():
        m[f"strategy.{key}.s"] = 0.0
    for i in timed:
        if spans[i][0] == "sweep_fleet":
            m[f"strategy.{STRATEGY_KEYS[spans[i][4]]}.s"] += spans[i][3] - spans[i][2]

    for kernel in PER_DESIGN_KERNELS:
        name = f"kernel.{kernel}"
        m[f"{name}.s"] = total((name,), timed)
        m[f"{name}.calls"] = calls((name,), timed)
    for probe, kernel in (("battery", "battery_import_exceeds"), ("cas", "schedule_run")):
        probes = calls((f"probe.{probe}",), timed)
        m[f"probe.{probe}.steps"] = m[f"kernel.{kernel}.calls"] / probes if probes else 0.0

    for phase in ("setup", "dispatch", "cleanup"):
        m[f"engine.{phase}_s"] = total((f"engine.{phase}",), timed)
    busy = sum(
        record["wall_s"]
        for _, records in worker_spans
        for record in records
        if record["name"] == "evaluate_chunk"
    )
    m["engine.worker_busy_s"] = busy
    dispatch = m["engine.dispatch_s"]
    m["engine.worker_util"] = busy / (workers * dispatch) if worker_spans and dispatch else 0.0
    m["engine.retries"] = counters.get("chunk_retries", 0.0)
    m["engine.steals"] = counters.get("capacity_steals", 0.0)

    m["shm.share_s"] = total(("shm.share",), timed)
    m["shm.bytes"] = sum(spans[i][4] or 0 for i in timed if spans[i][0] == "shm.share")
    m["shm.attaches"] = counters.get("context_attach_count", 0.0)

    m["journal.append_s"] = total(("journal.append",), timed)
    m["journal.appends"] = calls(("journal.append",), timed)
    m["journal.fingerprint_s"] = total(("journal.fingerprint",), timed)
    m["validate.s"] = total(("validate",), timed)
    m["validate.calls"] = calls(("validate",), timed)

    ledger: Dict[str, list] = {}
    for i in timed:
        name = "unattributed" if spans[i][0] in UNATTRIBUTED else spans[i][0]
        row = ledger.setdefault(name, [0.0, 0])
        row[0] += own[i]
        row[1] += 1
    residual = ledger.pop("unattributed", [0.0, 0])
    m["unattributed_s"] = residual[0]
    rows = sorted(((name, s, n) for name, (s, n) in ledger.items()), key=lambda row: -row[1])
    rows.append(("unattributed", residual[0], residual[1]))
    return m, rows


def _descendants_of_root(spans: List[list], root: str) -> set:
    inside: set = set()
    for i, (name, parent, *_rest) in enumerate(spans):
        if (name == root and parent < 0) or parent in inside:
            inside.add(i)
    return inside


def format_ledger(
    workload: str,
    sweep_s: float,
    rows: List[Tuple[str, float, int]],
    metrics: Dict[str, float],
) -> str:
    """The per-layer self-time table of one traced run, then the strategy split."""
    lines = [
        f"layer ledger: {workload} (traced sweep_s {sweep_s:.4f} s)",
        f"  {'layer':<32}{'self_s':>10}{'share':>8}{'calls':>9}",
    ]
    for name, seconds, n in rows:
        share = seconds / sweep_s if sweep_s else 0.0
        lines.append(f"  {name:<32}{seconds:>10.4f}{share:>8.1%}{n:>9}")
    total = sum(seconds for _, seconds, _ in rows)
    lines.append(f"  {'sum':<32}{total:>10.4f}{total / sweep_s if sweep_s else 0:>8.1%}")
    for key in STRATEGY_KEYS.values():
        seconds = metrics[f"strategy.{key}.s"]
        if seconds:
            lines.append(f"  strategy {key:<23}{seconds:>10.4f}{seconds / sweep_s:>8.1%}")
    return "\n".join(lines)
