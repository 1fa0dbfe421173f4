"""The paper benches regenerate their committed artifacts byte for byte.

Every paper bench in ``benchmarks/`` writes one table or figure to
``benchmarks/out/<name>.txt``, and the committed files are goldens.  Each
case here runs one bench with its output redirected to a temporary
directory and compares the text with the committed file, so a change that
moves a reproduced number fails the unit suite, not only the CI golden job.
The timing benches (``bench_perf``, ``bench_lint``) are not goldens.
"""

import importlib.util
import pathlib

import pytest

BENCH_DIR = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"
GOLDEN_DIR = BENCH_DIR / "out"
TIMING_BENCHES = {"bench_perf.py", "bench_lint.py"}
PAPER_BENCHES = sorted(
    path for path in BENCH_DIR.glob("bench_*.py") if path.name not in TIMING_BENCHES
)


class SingleRun:
    """Stands in for pytest-benchmark: runs the experiment once."""

    def pedantic(self, fn, rounds, iterations, warmup_rounds):
        return fn()


@pytest.fixture()
def bench_out(tmp_path, monkeypatch):
    """The benches' ``_common`` module, writing under ``tmp_path``."""
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    monkeypatch.delenv("REPRO_BENCH_WORKERS", raising=False)
    import _common

    monkeypatch.setattr(_common, "OUT_DIR", tmp_path)
    return tmp_path


def load_bench(path):
    spec = importlib.util.spec_from_file_location(f"paper_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_paper_bench_has_a_golden():
    assert len(PAPER_BENCHES) == 33
    goldens = {path.stem for path in GOLDEN_DIR.glob("*.txt")}
    assert len(goldens - {"lint_cold"}) == len(PAPER_BENCHES)


@pytest.mark.parametrize("path", PAPER_BENCHES, ids=lambda path: path.stem)
def test_bench_reproduces_its_golden(path, bench_out):
    module = load_bench(path)
    (bench,) = [
        getattr(module, name) for name in vars(module) if name.startswith("test_")
    ]
    bench(SingleRun())
    (written,) = bench_out.glob("*.txt")
    golden = GOLDEN_DIR / written.name
    assert written.read_text() == golden.read_text(), golden.name
