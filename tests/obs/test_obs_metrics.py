"""Tests for the counters/gauges/histograms registry."""

import json
import threading

from repro.obs import (
    BUCKET_BOUNDS,
    Histogram,
    MetricsRegistry,
    enable_metrics,
    gauge_value,
    get_registry,
    inc,
    merge_snapshot,
    metrics_enabled,
    metrics_snapshot,
    observe,
    render_metrics,
    reset_metrics,
    save_metrics,
    set_gauge,
)


class TestRegistry:
    def test_counters_accumulate(self):
        registry = MetricsRegistry()
        registry.inc("designs_evaluated")
        registry.inc("designs_evaluated", 4)
        assert registry.counter_value("designs_evaluated") == 5
        assert registry.counter_value("never_written") == 0.0  # repro-lint: disable=RL004 — deliberately unregistered; exercises the runtime registry guard

    def test_gauges_keep_last_value(self):
        registry = MetricsRegistry()
        registry.set_gauge("grid_points", 10)  # repro-lint: disable=RL004 — deliberately unregistered; exercises the runtime registry guard
        registry.set_gauge("grid_points", 3)  # repro-lint: disable=RL004 — deliberately unregistered; exercises the runtime registry guard
        assert registry.snapshot()["gauges"]["grid_points"] == 3

    def test_histogram_statistics(self):
        registry = MetricsRegistry()
        for value in (0.001, 0.01, 0.1):
            registry.observe("span.optimize.seconds", value)
        stats = registry.snapshot()["histograms"]["span.optimize.seconds"]
        assert stats["count"] == 3
        assert stats["min"] == 0.001
        assert stats["max"] == 0.1
        assert stats["sum"] == (0.001 + 0.01 + 0.1)
        assert sum(stats["buckets"].values()) == 3

    def test_disabled_registry_is_noop(self):
        registry = MetricsRegistry(enabled=False)
        registry.inc("c")  # repro-lint: disable=RL004 — deliberately unregistered; exercises the runtime registry guard
        registry.set_gauge("g", 1.0)  # repro-lint: disable=RL004 — deliberately unregistered; exercises the runtime registry guard
        registry.observe("h", 1.0)  # repro-lint: disable=RL004 — deliberately unregistered; exercises the runtime registry guard
        snap = registry.snapshot()
        assert snap == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_thread_safety_of_counters(self):
        registry = MetricsRegistry()

        def work():
            for _ in range(1000):
                registry.inc("hits")  # repro-lint: disable=RL004 — deliberately unregistered; exercises the runtime registry guard

        threads = [threading.Thread(target=work) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert registry.counter_value("hits") == 4000  # repro-lint: disable=RL004 — deliberately unregistered; exercises the runtime registry guard


class TestSnapshotRoundtrip:
    def test_snapshot_roundtrips_through_json(self):
        registry = MetricsRegistry()
        registry.inc("designs_evaluated", 7)
        registry.inc("battery_sim_hours", 8784)
        registry.set_gauge("sweep_grid_points", 40)
        registry.observe("span.evaluate_design.seconds", 0.02)
        snap = registry.snapshot()
        assert json.loads(json.dumps(snap)) == snap

    def test_reset_clears_everything(self):
        registry = MetricsRegistry()
        registry.inc("c")  # repro-lint: disable=RL004 — deliberately unregistered; exercises the runtime registry guard
        registry.observe("h", 1.0)  # repro-lint: disable=RL004 — deliberately unregistered; exercises the runtime registry guard
        registry.reset()
        assert registry.snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }

    def test_save_writes_valid_json(self, tmp_path):
        registry = MetricsRegistry()
        registry.inc("c", 2)  # repro-lint: disable=RL004 — deliberately unregistered; exercises the runtime registry guard
        path = tmp_path / "metrics.json"
        registry.save(path)
        assert json.loads(path.read_text())["counters"]["c"] == 2


class TestGlobalHelpers:
    def test_disabled_by_default(self):
        reset_metrics()
        assert not metrics_enabled()
        inc("ignored")  # repro-lint: disable=RL004 — deliberately unregistered; exercises the runtime registry guard
        set_gauge("ignored", 1.0)  # repro-lint: disable=RL004 — deliberately unregistered; exercises the runtime registry guard
        observe("ignored", 1.0)  # repro-lint: disable=RL004 — deliberately unregistered; exercises the runtime registry guard
        snap = metrics_snapshot()
        assert snap["counters"] == {}
        assert snap["gauges"] == {}
        assert snap["histograms"] == {}

    def test_enabled_helpers_write_to_default_registry(self):
        enable_metrics()
        inc("designs_evaluated", 3)
        assert get_registry().counter_value("designs_evaluated") == 3
        assert metrics_snapshot()["counters"]["designs_evaluated"] == 3

    def test_gauge_value_reads_default_registry(self):
        assert gauge_value("sweep_grid_points") == 0.0
        enable_metrics()
        set_gauge("sweep_grid_points", 40)
        set_gauge("sweep_grid_points", 12)
        assert gauge_value("sweep_grid_points") == 12

    def test_save_metrics_writes_snapshot(self, tmp_path):
        enable_metrics()
        inc("sweeps_completed")
        path = tmp_path / "m.json"
        save_metrics(path)
        assert json.loads(path.read_text())["counters"]["sweeps_completed"] == 1


class TestMergeCounters:
    """Worker-registry snapshots fold back into the parent additively."""

    def test_registry_merge_adds_counter_totals(self):
        parent = MetricsRegistry()
        parent.inc("designs_evaluated", 3)
        worker = MetricsRegistry()
        worker.inc("designs_evaluated", 5)
        worker.inc("battery_sim_hours", 24)
        parent.merge_counters(worker.snapshot()["counters"])
        assert parent.counter_value("designs_evaluated") == 8
        assert parent.counter_value("battery_sim_hours") == 24

    def test_merge_ignores_gauges_and_histograms(self):
        parent = MetricsRegistry()
        worker = MetricsRegistry()
        worker.set_gauge("sweep_grid_points", 40)
        worker.observe("span.optimize.seconds", 0.5)
        parent.merge_counters(worker.snapshot()["counters"])
        snap = parent.snapshot()
        assert snap["gauges"] == {} and snap["histograms"] == {}

    def test_merge_into_disabled_registry_is_noop(self):
        parent = MetricsRegistry(enabled=False)
        parent.merge_counters({"designs_evaluated": 5})
        assert parent.counter_value("designs_evaluated") == 0.0

    def test_module_helper_merges_a_full_snapshot(self):
        enable_metrics()
        inc("designs_evaluated", 2)
        worker = MetricsRegistry()
        worker.inc("designs_evaluated", 3)
        worker.inc("chunk_retries")
        worker.observe("span.optimize.seconds", 0.5)
        merge_snapshot(worker.snapshot())
        assert get_registry().counter_value("designs_evaluated") == 5
        assert get_registry().counter_value("chunk_retries") == 1
        assert metrics_snapshot()["histograms"]["span.optimize.seconds"]["count"] == 1


class TestRendering:
    def test_render_includes_all_metric_kinds(self):
        registry = MetricsRegistry()
        registry.inc("designs_evaluated", 12)
        registry.set_gauge("sweep_grid_points", 4)
        registry.observe("span.optimize.seconds", 0.5)
        text = registry.render_text()
        assert "designs_evaluated" in text
        assert "sweep_grid_points" in text
        assert "span.optimize.seconds" in text

    def test_render_empty(self):
        reset_metrics()
        assert "(empty)" in render_metrics()


class TestHistogramQuantiles:
    def test_empty_histogram_returns_nan(self):
        import math

        assert math.isnan(Histogram("h").quantile(0.5))

    def test_out_of_range_quantile_raises(self):
        import pytest

        with pytest.raises(ValueError):
            Histogram("h").quantile(1.5)

    def test_quantiles_are_clamped_to_observed_range(self):
        histogram = Histogram("h")
        for value in (0.02, 0.025, 0.03):
            histogram.observe(value)
        assert histogram.quantile(0.0) == 0.02
        assert histogram.quantile(1.0) == 0.03
        assert 0.02 <= histogram.quantile(0.5) <= 0.03

    def test_median_lands_in_the_right_bucket(self):
        histogram = Histogram("h")
        for value in (0.001,) * 50 + (10.0,) * 50:
            histogram.observe(value)
        # p25 must come from the low bucket, p75 from the high one.
        assert histogram.quantile(0.25) <= 0.001
        assert histogram.quantile(0.75) > 1.0

    def test_render_text_reports_quantiles(self):
        registry = MetricsRegistry()
        for value in (0.01, 0.02, 2.0):
            registry.observe("span.optimize.seconds", value)
        text = registry.render_text()
        assert "p50=" in text and "p95=" in text and "p99=" in text


class TestHistogramMerge:
    def test_merging_a_snapshot_twice_doubles_everything(self):
        source = MetricsRegistry()
        for value in (0.0005, 0.004, 0.25, 3.0):
            source.observe("span.optimize.seconds", value)
        stats = source.snapshot()["histograms"]["span.optimize.seconds"]
        target = MetricsRegistry()
        target.merge_histograms({"span.optimize.seconds": stats})
        target.merge_histograms({"span.optimize.seconds": stats})
        merged = target.snapshot()["histograms"]["span.optimize.seconds"]
        assert merged["count"] == 2 * stats["count"]
        assert merged["sum"] == 2 * stats["sum"]
        assert merged["min"] == stats["min"]
        assert merged["max"] == stats["max"]
        assert merged["buckets"] == {
            key: 2 * count for key, count in stats["buckets"].items()
        }

    def test_split_observations_merge_to_the_serial_histogram(self):
        values = [0.0005, 0.004, 0.004, 0.25, 3.0, 40.0]
        serial = MetricsRegistry()
        for value in values:
            serial.observe("span.optimize.seconds", value)
        parent = MetricsRegistry()
        for half in (values[:3], values[3:]):
            worker = MetricsRegistry()
            for value in half:
                worker.observe("span.optimize.seconds", value)
            parent.merge_snapshot(worker.snapshot())
        assert (
            parent.snapshot()["histograms"]
            == serial.snapshot()["histograms"]
        )

    def test_unknown_bucket_bound_raises(self):
        import pytest

        histogram = Histogram("h")
        with pytest.raises(ValueError, match="BUCKET_BOUNDS"):
            histogram.merge_json({"count": 1, "sum": 1.0, "buckets": {"0.123": 1}})

    def test_empty_snapshot_merge_is_noop(self):
        histogram = Histogram("h")
        histogram.merge_json({"count": 0, "sum": 0.0, "buckets": {}})
        assert histogram.count == 0

    def test_merge_snapshot_skips_gauges(self):
        parent = MetricsRegistry()
        worker = MetricsRegistry()
        worker.inc("designs_evaluated", 4)
        worker.set_gauge("sweep_grid_points", 40)
        worker.observe("span.optimize.seconds", 0.5)
        parent.merge_snapshot(worker.snapshot())
        snap = parent.snapshot()
        assert snap["counters"] == {"designs_evaluated": 4}
        assert snap["gauges"] == {}
        assert snap["histograms"]["span.optimize.seconds"]["count"] == 1

    def test_module_merge_snapshot_respects_disabled(self):
        reset_metrics()
        merge_snapshot({"counters": {"designs_evaluated": 3}, "histograms": {}})
        assert get_registry().counter_value("designs_evaluated") == 0.0

    def test_bucket_bounds_are_shared_and_sorted(self):
        assert BUCKET_BOUNDS == sorted(BUCKET_BOUNDS)
        assert len(set(BUCKET_BOUNDS)) == len(BUCKET_BOUNDS)
