"""Tests for the shared benchmark plumbing (benchmarks/_common.py).

The benchmarks package is not importable as a module from the test run
(it lives outside ``src``), so the module is loaded directly from its
file path.
"""

import importlib.util
import json
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
        bench_common.run_once(FakeBenchmark(), lambda: "x")
        path = bench_common.emit("fig15", "site  tons\nUT  42")
        assert path == bench_common.OUT_DIR / "fig15.txt"
        assert path.read_text() == "site  tons\nUT  42\n"

    def test_writes_json_sidecar_with_wall_time_and_metrics(self, bench_common):
        bench_common.run_once(FakeBenchmark(), lambda: "x")
        bench_common.emit("fig15", "rows")
        sidecar = json.loads((bench_common.OUT_DIR / "fig15.json").read_text())
        assert sidecar["name"] == "fig15"
        assert sidecar["wall_s"] >= 0.0
        assert set(sidecar["metrics"]) == {"counters", "gauges", "histograms"}

    def test_without_run_once_fails_loudly(self, bench_common):
        with pytest.raises(RuntimeError, match="without a preceding run_once"):
            bench_common.emit("fig15", "rows")
        assert not bench_common.OUT_DIR.exists()

    def test_measurement_is_consumed_not_reused(self, bench_common):
        bench_common.run_once(FakeBenchmark(), lambda: "x")
        bench_common.emit("fig15", "rows")
        # The stash is consumed: a second emit must not recycle stale timing.
        with pytest.raises(RuntimeError, match="without a preceding run_once"):
            bench_common.emit("other", "rows")

    def test_metrics_cover_exactly_the_timed_run(self, bench_common):
        from repro.obs import inc

        def work():
            inc("sweeps_completed", 3)
            return "x"

        inc("sweeps_completed", 100)  # pre-run noise, must not leak
        bench_common.run_once(FakeBenchmark(), work)
        bench_common.emit("fig15", "rows")
        sidecar = json.loads((bench_common.OUT_DIR / "fig15.json").read_text())
        assert sidecar["metrics"]["counters"]["sweeps_completed"] == 3


class TestRunOnce:
    def test_runs_fn_once_and_stashes_measurement(self, bench_common):
        calls = []

        def work():
            calls.append(1)
            return "result"

        assert bench_common.run_once(FakeBenchmark(), work) == "result"
        assert calls == [1]
        assert bench_common._last_run is not None
        assert bench_common._last_run["wall_s"] >= 0.0
        assert "counters" in bench_common._last_run["metrics"]

    def test_restores_metrics_enabled_state(self, bench_common):
        from repro.obs import disable_metrics, enable_metrics, metrics_enabled

        disable_metrics()
        try:
            bench_common.run_once(FakeBenchmark(), lambda: None)
            assert not metrics_enabled()
            enable_metrics()
            bench_common.run_once(FakeBenchmark(), lambda: None)
            assert metrics_enabled()
        finally:
            disable_metrics()


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
