"""Lint engine cost: one cold whole-tree run.

Not a paper artifact — this bench tracks the tooling itself.  The lint
engine re-derives the whole-program model (import/call graph; worker,
kernel and dispatch universes; metric registries) on every run; each file is read,
parsed and walked once, and nothing is cached between runs.  The bench
times one run over the same roots the CI lint gate checks.
"""

import pathlib
import time

from _common import emit, run_once

from repro.lint import lint_project
from repro.reporting import format_table

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

#: The same roots the CI lint gate checks.
LINT_PATHS = [
    str(REPO_ROOT / "src"),
    str(REPO_ROOT / "benchmarks"),
    str(REPO_ROOT / "tests"),
    str(REPO_ROOT / "examples"),
]


def test_lint_cold(benchmark):
    walls = {}

    def cold_run():
        start = time.perf_counter()
        report = lint_project(LINT_PATHS)
        walls["cold"] = time.perf_counter() - start
        return report

    report = run_once(benchmark, cold_run)
    assert report.stats["files"] > 0
    table = format_table(
        ["run", "files", "findings", "wall s"],
        [
            (
                "cold",
                f"{report.stats['files']}",
                f"{len(report.findings)}",
                f"{walls['cold']:.3f}",
            )
        ],
        title="Lint bench: cold whole-tree run",
    )
    emit("lint_cold", table)
