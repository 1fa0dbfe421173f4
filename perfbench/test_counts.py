"""The benchmark's own check that every workload is deterministic.

Runs each workload twice in fresh traced processes and requires the work
counts to repeat exactly: designs, chunks, kernel cells, supply-cache
hits and misses, journal appends and bisection steps.  A count that
drifts means the workload is not deterministic, and a timing comparison
across runs would compare different work.

In the pooled workloads each worker process has its own supply cache, so
how the projections split into hits and misses depends on which worker
evaluated which chunk; there the total number of projections must repeat
instead.

Run from the root of a checkout (takes about a minute)::

    python3 -m pytest perfbench/test_counts.py -q
    python3 perfbench/test_counts.py [workload ...]
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

#: Layer metrics that count work, compared exactly between two runs.
COUNTED = (
    "context.builds",
    "supply.calls",
    "evaluate.rows",
    "evaluate.fallback_rows",
    "batch.battery.calls",
    "batch.battery.cells",
    "batch.schedule.calls",
    "batch.schedule.cells",
    "batch.combined.calls",
    "batch.combined.cells",
    "kernel.battery_import_exceeds.calls",
    "kernel.schedule_run.calls",
    "kernel.battery_run.calls",
    "kernel.combined_run.calls",
    "engine.chunks",
    "journal.appends",
    "validate.calls",
)


def traced_counts(workload: str, seed: int = 0) -> dict:
    """Work counts of one traced run of ``workload`` in a fresh process."""
    (HERE / "out").mkdir(exist_ok=True)
    done = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "--workload", workload,
         "--seed", str(seed), "--mode", "traced", "--tmp-dir", str(HERE / "out")],
        cwd=ROOT,
        env=workloads.child_env(str(ROOT / "src")),
        capture_output=True,
        text=True,
        check=True,
        timeout=600,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    counts = {name: result["layers"][name] for name in COUNTED}
    if workloads.WORKLOADS[workload].workers == 1:
        counts["supply_cache_hits"] = result["counters"]["supply_cache_hits"]
        counts["supply_cache_misses"] = result["counters"]["supply_cache_misses"]
    return counts


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_counts_repeat_exactly(workload):
    first = traced_counts(workload)
    second = traced_counts(workload)
    drifted = {
        name: (first[name], second[name]) for name in first if first[name] != second[name]
    }
    assert not drifted, f"{workload}: counts differ between runs: {drifted}"
    assert first["evaluate.rows"] or first["kernel.battery_import_exceeds.calls"]


if __name__ == "__main__":
    names = sys.argv[1:] or sorted(workloads.WORKLOADS)
    sys.exit(pytest.main([__file__, "-q", "-k", " or ".join(names)]))
