"""Shared plumbing for the benchmark harness.

Every paper bench regenerates one of the paper's tables or figures as text
rows and both prints them and writes them to ``benchmarks/out/<name>.txt``
so the reproduced artifacts survive the run (pytest captures stdout by
default).  The committed ``.txt`` files are goldens: CI reruns the paper
benches and fails on any ``git diff`` under ``benchmarks/out/``.  Timing
lives in ``perfbench/``, not here.
"""

from __future__ import annotations

import os
import pathlib

OUT_DIR = pathlib.Path(__file__).parent / "out"


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

    Writes ``<name>.txt`` and returns its path so benches can assert on it.
    """
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n{text}\n[written to {path}]")
    return path


def run_once(benchmark, fn):
    """Run a heavy experiment exactly once through pytest-benchmark.

    The benches exist to *regenerate the paper's artifacts*; statistical
    timing rounds would multiply multi-second experiments pointlessly.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
