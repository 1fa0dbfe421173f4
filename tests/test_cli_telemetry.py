"""Tests for the live-telemetry CLI flags: --events-out and --metrics-port.

File-export flags (--metrics-out, --trace-out, --metrics-prom) ride the
same session plumbing and are covered here where they interact with the
new flags; their basics live in test_cli.py.
"""

import io
import re
import socket

import pytest

from repro.cli import main
from repro.core import Strategy
from repro.obs import (
    ProgressTicker,
    disable_metrics,
    disable_tracing,
    read_events_jsonl,
    reset_metrics,
    reset_tracing,
    validate_exposition,
)

SWEEP = [
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


@pytest.fixture(autouse=True)
def clean_obs_state():
    """Keep the global collectors disabled-and-empty across CLI tests."""
    yield
    disable_tracing()
    disable_metrics()
    reset_tracing()
    reset_metrics()


class TestEventsOut:
    def test_writes_readable_event_log(self, tmp_path, capsys):
        path = tmp_path / "events.jsonl"
        assert main(SWEEP + ["--events-out", str(path)]) == 0
        events = read_events_jsonl(path)
        kinds = [event["kind"] for event in events]
        assert kinds[0] == "sweep_started"
        assert kinds[-1] == "sweep_finished"
        assert [event["seq"] for event in events] == list(range(len(events)))

    def test_chunk_completed_count_matches_parallel_run(self, tmp_path, capsys):
        serial = tmp_path / "serial.jsonl"
        parallel = tmp_path / "parallel.jsonl"
        assert main(SWEEP + ["--events-out", str(serial)]) == 0
        assert (
            main(SWEEP + ["--workers", "2", "--events-out", str(parallel)]) == 0
        )

        def completed(path):
            return sorted(
                (event["payload"]["start"], event["payload"]["count"])
                for event in read_events_jsonl(path)
                if event["kind"] == "chunk_completed"
            )

        assert completed(serial) == completed(parallel)

    def test_events_out_creates_parent_directories(self, tmp_path, capsys):
        path = tmp_path / "deep" / "nested" / "events.jsonl"
        assert main(SWEEP + ["--events-out", str(path)]) == 0
        assert read_events_jsonl(path)


class TestMetricsProm:
    def test_writes_valid_exposition(self, tmp_path, capsys):
        path = tmp_path / "metrics.prom"
        assert main(SWEEP + ["--metrics-prom", str(path)]) == 0
        text = path.read_text()
        assert validate_exposition(text) == []
        assert "repro_designs_evaluated_total" in text


class TestMetricsPort:
    def test_ephemeral_port_announced_on_stderr(self, capsys):
        assert main(SWEEP + ["--metrics-port", "0"]) == 0
        err = capsys.readouterr().err
        assert "serving metrics on http://127.0.0.1:" in err

    def test_taken_port_fails_cleanly(self, capsys):
        with socket.socket() as blocker:
            blocker.bind(("127.0.0.1", 0))
            blocker.listen(1)
            port = blocker.getsockname()[1]
            assert main(SWEEP + ["--metrics-port", str(port)]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("port", ["-5", "65536", "100000"])
    def test_out_of_range_port_fails_cleanly(self, port, capsys):
        assert main(SWEEP + ["--metrics-port", port]) == 1
        captured = capsys.readouterr()
        assert f"error: --metrics-port must be in 0-65535, got {port}" in captured.err
        assert "serving metrics" not in captured.err


class TestMalformedOutputPaths:
    def test_malformed_metrics_out_exits_one_without_traceback(
        self, tmp_path, capsys
    ):
        blocker = tmp_path / "not_a_dir"
        blocker.write_text("")
        bad = blocker / "metrics.json"
        assert main(SWEEP + ["--metrics-out", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err

    def test_malformed_events_out_exits_one_without_traceback(
        self, tmp_path, capsys
    ):
        blocker = tmp_path / "not_a_dir"
        blocker.write_text("")
        bad = blocker / "events.jsonl"
        assert main(SWEEP + ["--events-out", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err

    def test_stats_with_malformed_metrics_out_exits_one(self, tmp_path, capsys):
        blocker = tmp_path / "not_a_dir"
        blocker.write_text("")
        bad = blocker / "metrics.json"
        assert main(["stats", "UT", "--metrics-out", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err


class TestStatsProgress:
    """``repro stats`` paints its ticker from the sweep event bus."""

    @pytest.mark.parametrize("events_out", [False, True], ids=["own-bus", "events-out"])
    def test_ticker_paints_every_strategy_to_completion(
        self, tmp_path, monkeypatch, capsys, events_out
    ):
        painted = io.StringIO()
        monkeypatch.setattr(
            "repro.cli.ProgressTicker",
            lambda: ProgressTicker(stream=painted, force=True, min_interval_s=0.0),
        )
        path = tmp_path / "events.jsonl"
        argv = ["stats", "UT"] + (["--events-out", str(path)] if events_out else [])
        assert main(argv) == 0
        last = {}
        for label, done, total in re.findall(
            r"([^\r]+?): (\d+)/(\d+)", painted.getvalue()
        ):
            last[label] = (int(done), int(total))
        assert set(last) == {strategy.value for strategy in Strategy}
        assert all(done == total > 0 for done, total in last.values())
        if events_out:
            # The ticker rode the --events-out bus: its totals are the log's.
            counts = {}
            for event in read_events_jsonl(path):
                if event["kind"] == "chunk_completed":
                    label = event["payload"]["strategy"]
                    counts[label] = counts.get(label, 0) + event["payload"]["count"]
            assert counts == {label: done for label, (done, _) in last.items()}
