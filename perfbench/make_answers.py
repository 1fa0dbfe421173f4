"""Regenerate ``known_answers.json`` from the serial per-design path.

Usage, from the root of a checkout::

    python3 perfbench/make_answers.py --seeds 0-23 [--jobs 2]

Each (seed, workload) reference runs in a fresh ``child.py --mode reference``
process: every design of the grid is evaluated one at a time with
``evaluate_design`` (no engine, no batching), and every probe is run
once.  Regenerate only when a change is *meant* to alter results; the
answers pin the code the file was made from.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import workloads  # noqa: E402



def reference(seed: int, workload: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "--workload", workload,
         "--seed", str(seed), "--mode", "reference"],
        cwd=ROOT,
        env=workloads.child_env(str(ROOT / "src")),
        capture_output=True,
        text=True,
        check=True,
        timeout=600,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])["answers"]


def parse_seeds(spec: str) -> list:
    seeds = []
    for part in spec.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", default="0-23")
    parser.add_argument("--jobs", type=int, default=2)
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    tasks = [(seed, workload) for seed in seeds for workload in workloads.WORKLOADS.values()]
    started = time.monotonic()
    with ThreadPoolExecutor(max_workers=args.jobs) as pool:
        answers = list(pool.map(lambda task: reference(task[0], task[1].name), tasks))
    table: dict = {"seeds": {}}
    for (seed, workload), answer in zip(tasks, answers):
        section = table["seeds"].setdefault(str(seed), {}).setdefault(workload.grid, {})
        for site, value in answer.items():
            # Workloads sharing a grid merge their strategies per site;
            # equal keys hold equal digests.
            if isinstance(value, dict):
                section.setdefault(site, {}).update(value)
            else:
                section[site] = value
    with open(HERE / "known_answers.json", "w") as handle:
        json.dump(table, handle, separators=(",", ":"), sort_keys=True)
        handle.write("\n")
    print(f"{len(tasks)} references in {time.monotonic() - started:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
