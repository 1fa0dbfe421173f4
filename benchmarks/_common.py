"""Shared plumbing for the benchmark harness.

Every bench regenerates one of the paper's tables or figures as text rows
and both prints them and writes them to ``benchmarks/out/<name>.txt`` so the
reproduced artifacts survive the run (pytest captures stdout by default).
Alongside each text artifact, :func:`emit` writes a machine-readable
``benchmarks/out/<name>.json`` recording the wall-clock seconds of the
:func:`run_once` call that produced it plus the :mod:`repro.obs` metrics
that run generated — the feed for the perf trajectory — and a
``benchmarks/out/<name>.prom`` Prometheus text-format exposition of the
same snapshot, scrape-ready for a node-exporter textfile collector.

The two calls form a strict pair: :func:`run_once` captures the wall time
*and* a metrics snapshot atomically at the end of the timed run (metrics
recording is force-enabled and reset around the run, so the snapshot covers
exactly that run and is never empty-because-disabled), and :func:`emit`
consumes the capture.  Calling :func:`emit` without a preceding
:func:`run_once` raises rather than writing a stale or null measurement.
"""

from __future__ import annotations

import json
import os
import pathlib
import time
from typing import Any, Dict, Optional

from repro.obs import (
    disable_metrics,
    enable_metrics,
    metrics_enabled,
    metrics_snapshot,
    render_prometheus,
    reset_metrics,
)

OUT_DIR = pathlib.Path(__file__).parent / "out"

#: Measurement of the most recent :func:`run_once` — ``{"wall_s", "metrics"}``
#: captured together at the end of the timed run, consumed by the next
#: :func:`emit` (benches always pair the two calls).
_last_run: Optional[Dict[str, Any]] = None


def bench_workers() -> int:
    """Worker processes for sweep-driving benches (``REPRO_BENCH_WORKERS``).

    Defaults to 1 (serial, the comparable-across-machines configuration);
    CI sets the variable to exercise the process-parallel sweep path.
    Raises ``ValueError`` naming the variable for anything but an integer
    of at least 1 (``abc``, ``2.5``, ``0``), so a typo fails where it is
    read instead of reaching a sweep as a malformed knob.
    """
    raw = os.environ.get("REPRO_BENCH_WORKERS", "1")
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise ValueError(f"REPRO_BENCH_WORKERS must be an integer >= 1, got {raw!r}")
    return value


def emit(name: str, text: str) -> pathlib.Path:
    """Print a reproduced table/series and persist it under benchmarks/out/.

    Writes ``<name>.txt`` (the human artifact), ``<name>.json`` (wall
    time and metrics of the preceding :func:`run_once`), and
    ``<name>.prom`` (the same metrics as a Prometheus exposition), and
    returns the path of the text artifact so benches can assert on it.

    Raises
    ------
    RuntimeError
        If no :func:`run_once` measurement is pending — emitting without a
        timed run would record ``wall_s: null`` and whatever metrics happen
        to be lying around, which silently corrupts the perf trajectory.
    """
    global _last_run
    if _last_run is None:
        raise RuntimeError(
            f"emit({name!r}) called without a preceding run_once(); "
            "benches must time the run that produced the artifact"
        )
    measurement, _last_run = _last_run, None
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    metrics = measurement["metrics"]
    payload = {
        "name": name,
        "wall_s": measurement["wall_s"],
        "metrics": metrics,
        # The per-worker payload economics of the shared trace plane,
        # surfaced out of the raw snapshot so the perf trajectory can chart
        # them directly.  All zero for serial runs (REPRO_BENCH_WORKERS=1).
        "trace_plane": {
            "context_pickle_bytes": metrics["gauges"].get("context_pickle_bytes", 0),
            "shm_bytes_shared": metrics["counters"].get("shm_bytes_shared", 0),
            "context_attach_count": metrics["counters"].get("context_attach_count", 0),
        },
    }
    (OUT_DIR / f"{name}.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    (OUT_DIR / f"{name}.prom").write_text(render_prometheus(metrics))
    print(f"\n{text}\n[written to {path}]")
    return path


def run_once(benchmark, fn):
    """Benchmark a heavy experiment exactly once (no calibration rounds).

    The benches exist to *regenerate the paper's artifacts* and record the
    wall-clock cost of one full regeneration; statistical timing rounds
    would multiply multi-second experiments pointlessly.  Metrics recording
    is enabled and reset for the duration of the run (the prior enabled
    state is restored afterwards), and the wall time plus the run's metrics
    snapshot are stashed as one atomic measurement for the following
    :func:`emit` call's JSON artifact.
    """

    def timed():
        global _last_run
        was_enabled = metrics_enabled()
        reset_metrics()
        enable_metrics()
        try:
            start = time.perf_counter()
            result = fn()
            wall_s = time.perf_counter() - start
            _last_run = {"wall_s": wall_s, "metrics": metrics_snapshot()}
        finally:
            if not was_enabled:
                disable_metrics()
        return result

    return benchmark.pedantic(timed, rounds=1, iterations=1, warmup_rounds=0)
