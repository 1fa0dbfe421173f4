"""Tests for the shared benchmark plumbing (benchmarks/_common.py).

The benchmarks package is not importable as a module from the test run
(it lives outside ``src``), so the module is loaded directly from its
file path.
"""

import importlib.util
import pathlib

import pytest

_COMMON_PATH = (
    pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "_common.py"
)


class FakeBenchmark:
    def pedantic(self, fn, rounds, iterations, warmup_rounds):
        assert (rounds, iterations, warmup_rounds) == (1, 1, 0)
        return fn()


@pytest.fixture()
def bench_common(tmp_path, monkeypatch):
    """A fresh _common module with OUT_DIR pointed at a missing nested dir."""
    spec = importlib.util.spec_from_file_location("bench_common", _COMMON_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # Two missing levels: proves emit() creates parents, not just the leaf.
    monkeypatch.setattr(module, "OUT_DIR", tmp_path / "nested" / "out")
    return module


class TestEmit:
    def test_creates_out_dir_with_parents_and_returns_path(self, bench_common):
        path = bench_common.emit("fig15", "site  tons\nUT  42")
        assert path == bench_common.OUT_DIR / "fig15.txt"
        assert path.read_text() == "site  tons\nUT  42\n"

    def test_writes_only_the_text_artifact(self, bench_common):
        bench_common.emit("fig15", "rows")
        assert sorted(p.name for p in bench_common.OUT_DIR.iterdir()) == ["fig15.txt"]


class TestRunOnce:
    def test_runs_fn_once_and_returns_its_result(self, bench_common):
        calls = []

        def work():
            calls.append(1)
            return "result"

        assert bench_common.run_once(FakeBenchmark(), work) == "result"
        assert calls == [1]


class TestBenchWorkers:
    def test_defaults_to_serial(self, bench_common, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_WORKERS", raising=False)
        assert bench_common.bench_workers() == 1

    def test_reads_environment(self, bench_common, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_WORKERS", "4")
        assert bench_common.bench_workers() == 4

    @pytest.mark.parametrize("raw", ["abc", "2.5", "-1", "0", ""])
    def test_rejects_malformed_values_naming_the_variable(
        self, bench_common, monkeypatch, raw
    ):
        monkeypatch.setenv("REPRO_BENCH_WORKERS", raw)
        with pytest.raises(ValueError, match="REPRO_BENCH_WORKERS"):
            bench_common.bench_workers()
