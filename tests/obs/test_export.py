"""Tests for Prometheus exposition export (:mod:`repro.obs.export`)."""

from __future__ import annotations

import os
import pathlib
import urllib.request

import pytest

from repro.obs import (
    MetricsRegistry,
    enable_metrics,
    inc,
    observe,
    render_prometheus,
    save_prometheus,
    set_gauge,
    start_metrics_server,
    validate_exposition,
)
from repro.obs.__main__ import _main
from repro.obs.export import (
    CONTENT_TYPE,
    MetricsServer,
    prometheus_name,
)

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_metrics.prom"


def fixed_snapshot() -> dict:
    """A deterministic registry snapshot exercising all three kinds."""
    registry = MetricsRegistry()
    registry.inc("designs_evaluated", 42)
    registry.inc("battery_sim_hours", 8784)
    registry.set_gauge("sweep_grid_points", 18)
    registry.set_gauge("context_pickle_bytes", 1.5)
    for value in (0.0005, 0.004, 0.004, 0.25, 3.0):
        registry.observe("span.optimize.seconds", value)
    return registry.snapshot()


class TestRenderPrometheus:
    def test_matches_golden_file(self):
        assert render_prometheus(fixed_snapshot()) == GOLDEN.read_text()

    def test_golden_file_is_valid_exposition(self):
        assert validate_exposition(GOLDEN.read_text()) == []

    def test_counters_exported_with_total_suffix(self):
        text = render_prometheus(fixed_snapshot())
        assert "repro_designs_evaluated_total 42" in text
        assert "# TYPE repro_designs_evaluated_total counter" in text

    def test_name_mangling(self):
        assert prometheus_name("span.optimize.seconds") == (
            "repro_span_optimize_seconds"
        )
        assert prometheus_name("weird-name with spaces") == (
            "repro_weird_name_with_spaces"
        )

    def test_histogram_buckets_are_cumulative_and_capped_by_count(self):
        text = render_prometheus(fixed_snapshot())
        assert 'repro_span_optimize_seconds_bucket{le="+Inf"} 5' in text
        assert "repro_span_optimize_seconds_count 5" in text
        assert "repro_span_optimize_seconds_sum" in text

    def test_empty_snapshot_renders_empty(self):
        assert render_prometheus({"counters": {}, "gauges": {}, "histograms": {}}) == ""

    def test_live_registry_render_validates(self, clean_obs_state):
        enable_metrics()
        inc("designs_evaluated", 3)
        set_gauge("sweep_grid_points", 9)
        observe("span.optimize.seconds", 0.5)
        text = render_prometheus()
        assert validate_exposition(text) == []
        assert "repro_designs_evaluated_total 3" in text


class TestValidator:
    def test_valid_document_passes(self):
        doc = (
            "# HELP repro_hits_total Counter.\n"
            "# TYPE repro_hits_total counter\n"
            "repro_hits_total 5\n"
        )
        assert validate_exposition(doc) == []

    def test_counter_sample_must_end_in_total(self):
        doc = "# TYPE repro_hits counter\nrepro_hits 5\n"
        problems = validate_exposition(doc)
        assert any("_total" in p for p in problems)

    def test_type_after_sample_is_flagged(self):
        doc = "repro_x 1\n# TYPE repro_x gauge\n"
        problems = validate_exposition(doc)
        assert any("must precede" in p for p in problems)

    def test_interleaved_families_are_flagged(self):
        doc = "repro_a 1\nrepro_b 2\nrepro_a 3\n"
        problems = validate_exposition(doc)
        assert any("interleaved" in p for p in problems)

    def test_duplicate_sample_is_flagged(self):
        doc = "repro_a 1\nrepro_a 1\n"
        problems = validate_exposition(doc)
        assert any("duplicate sample" in p for p in problems)

    def test_bad_label_escape_is_flagged(self):
        doc = 'repro_a{site="u\\t"} 1\n'
        problems = validate_exposition(doc)
        assert any("escaping" in p for p in problems)

    def test_legal_label_escapes_pass(self):
        doc = 'repro_a{site="u\\n\\"t\\\\x"} 1\n'
        assert validate_exposition(doc) == []

    def test_non_monotone_le_is_flagged(self):
        doc = (
            "# TYPE repro_h histogram\n"
            'repro_h_bucket{le="0.5"} 1\n'
            'repro_h_bucket{le="0.1"} 2\n'
            'repro_h_bucket{le="+Inf"} 2\n'
            "repro_h_sum 0.6\n"
            "repro_h_count 2\n"
        )
        problems = validate_exposition(doc)
        assert any("strictly increasing" in p for p in problems)

    def test_decreasing_cumulative_counts_are_flagged(self):
        doc = (
            "# TYPE repro_h histogram\n"
            'repro_h_bucket{le="0.1"} 3\n'
            'repro_h_bucket{le="0.5"} 2\n'
            'repro_h_bucket{le="+Inf"} 3\n'
            "repro_h_sum 0.6\n"
            "repro_h_count 3\n"
        )
        problems = validate_exposition(doc)
        assert any("decreased" in p for p in problems)

    def test_missing_inf_bucket_is_flagged(self):
        doc = (
            "# TYPE repro_h histogram\n"
            'repro_h_bucket{le="0.1"} 1\n'
            "repro_h_sum 0.05\n"
            "repro_h_count 1\n"
        )
        problems = validate_exposition(doc)
        assert any("+Inf" in p for p in problems)

    def test_count_inf_disagreement_is_flagged(self):
        doc = (
            "# TYPE repro_h histogram\n"
            'repro_h_bucket{le="+Inf"} 3\n'
            "repro_h_sum 0.6\n"
            "repro_h_count 4\n"
        )
        problems = validate_exposition(doc)
        assert any("disagrees" in p for p in problems)

    def test_unparseable_sample_is_flagged(self):
        assert validate_exposition("!!!\n") != []
        assert validate_exposition("repro_a notafloat\n") != []

    def test_unknown_type_is_flagged(self):
        doc = "# TYPE repro_a sparkline\nrepro_a 1\n"
        problems = validate_exposition(doc)
        assert any("unknown TYPE" in p for p in problems)


class TestAtomicSave:
    def test_writes_valid_file_and_no_tmp_leftovers(self, tmp_path):
        target = tmp_path / "out" / "metrics.prom"
        save_prometheus(target, fixed_snapshot())
        assert validate_exposition(target.read_text()) == []
        leftovers = [p for p in target.parent.iterdir() if p.name != target.name]
        assert leftovers == []

    def test_replaces_existing_file(self, tmp_path):
        target = tmp_path / "metrics.prom"
        target.write_text("stale\n")
        save_prometheus(target, fixed_snapshot())
        assert "repro_designs_evaluated_total" in target.read_text()


class TestMetricsServer:
    def test_serves_valid_metrics_on_ephemeral_port(self, clean_obs_state):
        enable_metrics()
        inc("designs_evaluated", 7)
        with start_metrics_server(port=0) as server:
            assert server.port != 0
            with urllib.request.urlopen(server.url, timeout=5) as response:
                assert response.status == 200
                assert response.headers["Content-Type"] == CONTENT_TYPE
                body = response.read().decode("utf-8")
        assert "repro_designs_evaluated_total 7" in body
        assert validate_exposition(body) == []

    def test_unknown_path_is_404(self, clean_obs_state):
        with MetricsServer(port=0) as server:
            url = f"http://{server.host}:{server.port}/nope"
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(url, timeout=5)
            assert excinfo.value.code == 404

    def test_close_is_idempotent_and_releases_port(self):
        server = MetricsServer(port=0).start()
        port = server.port
        server.close()
        server.close()
        # The port is free again: a new server can bind it.
        rebound = MetricsServer(port=port)
        rebound.close()

    def test_taken_port_raises_oserror(self):
        with MetricsServer(port=0) as server:
            with pytest.raises(OSError):
                start_metrics_server(port=server.port)


class TestValidatorCli:
    def test_valid_file_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "ok.prom"
        save_prometheus(path, fixed_snapshot())
        assert _main([str(path)]) == 0
        assert capsys.readouterr().err == ""

    def test_invalid_file_exits_one_with_problems(self, tmp_path, capsys):
        path = tmp_path / "bad.prom"
        path.write_text("repro_a 1\nrepro_a 1\n")
        assert _main([str(path)]) == 1
        assert "duplicate sample" in capsys.readouterr().err

    def test_module_entry_point_leaves_stderr_empty(self, tmp_path):
        """``python -m repro.obs FILE`` runs without runpy's re-import warning."""
        import subprocess
        import sys

        import repro

        path = tmp_path / "ok.prom"
        save_prometheus(path, fixed_snapshot())
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-m", "repro.obs", str(path)],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert (done.returncode, done.stderr) == (0, "")

    def test_usage_error_exits_two(self, capsys):
        assert _main([]) == 2
        assert "usage" in capsys.readouterr().err

    def test_reads_stdin_with_dash(self, monkeypatch, capsys):
        import io

        monkeypatch.setattr(
            "sys.stdin", io.StringIO("# TYPE repro_a gauge\nrepro_a 1\n")
        )
        assert _main(["-"]) == 0
