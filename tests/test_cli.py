"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.core import Strategy
from repro.core.evaluate import _BATCH_MIN_ROWS
from repro.obs import (
    LOGGER_NAME,
    disable_metrics,
    disable_tracing,
    reset_metrics,
    reset_tracing,
)
from repro.obs.log import _HANDLER_MARKER


@pytest.fixture(autouse=True)
def clean_obs_state():
    """Keep the global collectors disabled-and-empty across CLI tests."""
    yield
    disable_tracing()
    disable_metrics()
    reset_tracing()
    reset_metrics()
    import logging

    logger = logging.getLogger(LOGGER_NAME)
    for handler in list(logger.handlers):
        if getattr(handler, _HANDLER_MARKER, False):
            logger.removeHandler(handler)
    logger.setLevel(logging.NOTSET)


class TestCoverage:
    def test_default_investment(self, capsys):
        assert main(["coverage", "UT"]) == 0
        out = capsys.readouterr().out
        assert "UT" in out
        assert "694" in out  # Meta's regional solar

    def test_explicit_investment(self, capsys):
        assert main(["coverage", "UT", "--solar", "100", "--wind", "50"]) == 0
        out = capsys.readouterr().out
        assert "100" in out and "50" in out

    def test_unknown_site_rejected(self):
        with pytest.raises(SystemExit):
            main(["coverage", "ZZ"])


class TestBattery:
    def test_reports_hours(self, capsys):
        assert main(["battery", "UT"]) == 0
        out = capsys.readouterr().out
        assert "battery for 24/7" in out

    def test_infinite_search_ceiling_fails_promptly(self):
        # A separate process with a timeout: an unbounded bisection would
        # otherwise hang the suite instead of failing it.
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(Path(repro.__file__).parents[1]), env.get("PYTHONPATH")])
        )
        done = subprocess.run(
            [sys.executable, "-m", "repro", "battery", "UT", "--max-hours", "inf"],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 1
        assert done.stderr.startswith("error:")
        assert "max_hours_of_load" in done.stderr

    def test_nan_search_ceiling_is_domain_error(self, capsys):
        assert main(["battery", "UT", "--max-hours", "nan"]) == 1
        assert "error: max_hours_of_load" in capsys.readouterr().err


class TestSchedule:
    def test_reports_gain(self, capsys):
        assert main(["schedule", "UT", "--fwr", "0.4"]) == 0
        out = capsys.readouterr().out
        assert "coverage before" in out
        assert "moved MWh" in out

    def test_invalid_fwr_is_domain_error(self, capsys):
        assert main(["schedule", "UT", "--fwr", "2.0"]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value", [("--fwr", "nan"), ("--capacity-multiple", "nan")]
    )
    def test_nan_constraint_is_domain_error(self, flag, value, capsys):
        assert main(["schedule", "UT", flag, value]) == 1
        assert capsys.readouterr().err.startswith("error:")


class TestOptimize:
    def test_single_strategy(self, capsys):
        code = main(
            [
                "optimize",
                "UT",
                "--strategy",
                "battery",
                "--renewable-steps",
                "2",
                "--battery-hours",
                "0",
                "5",
                "--extra-capacity",
                "0",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "renewables + battery" in out
        assert "design" in out

    def test_batch_size_help_names_the_current_floors(self, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["optimize", "--help"])
        assert exited.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        cas = _BATCH_MIN_ROWS[Strategy.RENEWABLES_CAS]
        combined = _BATCH_MIN_ROWS[Strategy.RENEWABLES_BATTERY_CAS]
        assert f"CAS blocks of {cas}+ rows" in text
        assert f"combined rounds of {combined}+ rows" in text


class TestScenariosAndGap:
    def test_scenarios(self, capsys):
        assert main(["scenarios", "UT"]) == 0
        out = capsys.readouterr().out
        assert "grid mix" in out
        assert "24/7" in out

    def test_gap_ordering_visible(self, capsys):
        assert main(["gap", "UT"]) == 0
        out = capsys.readouterr().out
        assert "annual (Net Zero)" in out
        assert "hourly (24/7 CFE)" in out


class TestExport:
    def test_export_grid(self, tmp_path, capsys):
        path = tmp_path / "grid.csv"
        assert main(["export-grid", "PACE", str(path)]) == 0
        assert path.exists()
        from repro.io import read_grid_csv

        parsed = read_grid_csv(path)
        assert parsed.authority.code == "PACE"

    def test_export_grid_unknown_ba(self, tmp_path, capsys):
        assert main(["export-grid", "NOPE", str(tmp_path / "x.csv")]) == 1
        assert "error" in capsys.readouterr().err

    def test_export_demand(self, tmp_path, capsys):
        path = tmp_path / "demand.csv"
        assert main(["export-demand", "UT", str(path)]) == 0
        from repro.io import read_trace_csv

        parsed = read_trace_csv(path)
        assert parsed.mean() == pytest.approx(19.0, rel=0.05)


class TestObservabilityFlags:
    def test_metrics_out_writes_valid_json(self, tmp_path, capsys):
        path = tmp_path / "metrics.json"
        assert main(["coverage", "UT", "--metrics-out", str(path)]) == 0
        snap = json.loads(path.read_text())
        assert set(snap) == {"counters", "gauges", "histograms"}

    def test_trace_out_writes_span_tree(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        assert main(["battery", "UT", "--trace-out", str(path)]) == 0
        document = json.loads(path.read_text())
        assert document["format"] == "repro-span-tree/1"
        names = [span["name"] for span in document["spans"]]
        # The capacity search runs on the early-exit probe kernel, so the
        # sizing span (not per-simulation spans) is what the CLI records.
        assert "capacity_for_full_coverage" in names

    def test_metrics_out_written_even_on_domain_error(self, tmp_path, capsys):
        path = tmp_path / "metrics.json"
        assert main(["schedule", "UT", "--fwr", "2.0", "--metrics-out", str(path)]) == 1
        snap = json.loads(path.read_text())
        # Context construction may record counters (dataset generation,
        # site-context cache) before the bad ratio is rejected, but the
        # scheduling run itself never happened.
        assert "schedules_run" not in snap["counters"]

    def test_log_level_flag_emits_repro_logs(self, capsys):
        code = main(
            [
                "optimize",
                "UT",
                "--strategy",
                "renewables",
                "--renewable-steps",
                "2",
                "--battery-hours",
                "0",
                "--extra-capacity",
                "0",
                "--log-level",
                "info",
            ]
        )
        assert code == 0
        # configure_logging writes to stderr by default; the fleet logs
        # sweep start/end and the event bus each site's sweep_finished at
        # INFO regardless of cache state.
        err = capsys.readouterr().err
        assert "repro.core.fleet" in err
        assert "fleet sweep start" in err
        assert "repro.obs.events" in err
        assert "sweep_finished site=UT" in err


class TestStats:
    def test_stats_writes_metrics_and_nested_trace(self, tmp_path, capsys):
        metrics_path = tmp_path / "m.json"
        trace_path = tmp_path / "t.json"
        code = main(
            [
                "stats",
                "UT",
                "--metrics-out",
                str(metrics_path),
                "--trace-out",
                str(trace_path),
            ]
        )
        assert code == 0

        snap = json.loads(metrics_path.read_text())
        assert snap["counters"]["designs_evaluated"] > 0
        assert snap["counters"]["sweeps_completed"] == 4
        assert snap["histograms"]["span.evaluate_design.seconds"]["count"] > 0

        document = json.loads(trace_path.read_text())
        optimize_spans = [
            span for span in document["spans"] if span["name"] == "optimize"
        ]
        assert len(optimize_spans) == 4

        def find(node, name):
            if node["name"] == name:
                return node
            for child in node["children"]:
                hit = find(child, name)
                if hit is not None:
                    return hit
            return None

        battery_sweep = next(
            span
            for span in optimize_spans
            if "battery" in span["attrs"]["strategy"]
        )
        evaluate = find(battery_sweep, "evaluate_design")
        assert evaluate is not None
        assert find(evaluate, "simulate_battery") is not None

    def test_stats_prints_summary_tables(self, capsys):
        assert main(["stats", "UT"]) == 0
        out = capsys.readouterr().out
        assert "designs_evaluated" in out
        assert "optimize" in out
