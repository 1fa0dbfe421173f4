"""CLI surface of the fleet scheduler: rank streaming/deadline/faults, journal.

``repro rank`` runs the fleet sweep, so these tests exercise the user-facing
contracts: ``--stream`` narrates reconstructable JSON events, ``--deadline``
reports cut-off sites instead of hanging, ``--fault-plan`` degrades only
the targeted fault domain, interrupts print a partial table and exit 130, and
``repro journal`` answers "is this checkpoint worth resuming?".
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.core import FleetInterrupted, SiteStatus, SiteSweep
from repro.obs import disable_metrics, disable_tracing, reset_metrics, reset_tracing

_RANK_UT = ["rank", "--sites", "UT", "--workers", "1"]


@pytest.fixture(autouse=True)
def clean_obs_state():
    yield
    disable_tracing()
    disable_metrics()
    reset_tracing()
    reset_metrics()


def _stream_events(out: str):
    """Parse 'stream <kind> <json>' lines back into (kind, payload) pairs."""
    events = []
    for line in out.splitlines():
        if line.startswith("stream "):
            _, kind, payload = line.split(" ", 2)
            events.append((kind, json.loads(payload)))
    return events


class TestRank:
    def test_single_site_rank(self, capsys):
        assert main(_RANK_UT) == 0
        out = capsys.readouterr().out
        assert "Site ranking" in out
        assert "complete" in out
        assert "stream " not in out

    def test_unknown_site_is_an_error(self, capsys):
        assert main(["rank", "--sites", "UT,ZZ"]) == 1
        assert "unknown site" in capsys.readouterr().err

    def test_bare_fault_plan_fires_at_every_site(self, capsys, tmp_path):
        assert main(_RANK_UT) == 0
        clean = capsys.readouterr().out
        metrics = tmp_path / "metrics.json"
        code = main(
            ["rank", "--sites", "UT", "--workers", "2", "--fault-plan", "kill=0"]
            + ["--metrics-out", str(metrics)]
        )
        assert code == 0
        assert capsys.readouterr().out == clean
        counters = json.loads(metrics.read_text())["counters"]
        assert counters["chunk_failures"] >= 1

    def test_bad_fault_plan_spec_is_an_error(self, capsys):
        code = main(_RANK_UT + ["--fault-plan", "UT:explode"])
        assert code == 1
        assert "bad fleet fault clause" in capsys.readouterr().err

    def test_serial_fault_plan_warns_it_cannot_fire(self, capsys):
        code = main(_RANK_UT + ["--fault-plan", "UT:kill@0.5"])
        assert code == 0
        assert "--workers 1" in capsys.readouterr().err


class TestRankStream:
    def test_stream_reconstructs_final_frontiers(self, capsys):
        code = main(
            ["rank", "--sites", "UT,NM", "--workers", "2", "--stream"]
        )
        assert code == 0
        out = capsys.readouterr().out
        events = _stream_events(out)
        kinds = {kind for kind, _ in events}
        assert {"sweep_started", "frontier_updated", "sweep_finished"} <= kinds
        # chunk bookkeeping stays off the stream
        assert "chunk_completed" not in kinds
        for site in ("UT", "NM"):
            improvements = [
                p["total_tons"]
                for kind, p in events
                if kind == "frontier_updated" and p["site"] == site
            ]
            finished = [
                p
                for kind, p in events
                if kind == "sweep_finished" and p["site"] == site
            ]
            assert len(finished) == 1
            # The streamed improvements alone reconstruct the final best.
            assert min(improvements) == finished[0]["best_total_tons"]
        assert "Site ranking" in out

    def test_shm_fault_quarantines_only_that_site(self, capsys):
        code = main(
            [
                "rank",
                "--sites",
                "UT,OR",
                "--workers",
                "2",
                "--stream",
                "--fault-plan",
                "OR:shm",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        events = _stream_events(out)
        quarantined = [p["site"] for k, p in events if k == "site_quarantined"]
        assert quarantined == ["OR"]
        statuses = {
            p["site"]: p["status"]
            for k, p in events
            if k == "sweep_finished"
        }
        assert statuses == {"UT": "complete", "OR": "degraded"}
        # the table carries the same verdicts
        assert "degraded" in out and "complete" in out

    def test_stream_lines_precede_the_rank_table(self, capsys):
        """The printer is a bus subscriber running in the sweep's thread,
        so every stream line is out before the table prints."""
        assert main(_RANK_UT + ["--stream"]) == 0
        lines = capsys.readouterr().out.splitlines()
        table = next(i for i, line in enumerate(lines) if "Site ranking" in line)
        streamed = [i for i, line in enumerate(lines) if line.startswith("stream ")]
        assert streamed and max(streamed) < table
        assert lines[streamed[-1]].startswith("stream sweep_finished ")


class TestRankDeadline:
    def test_tiny_deadline_reports_cutoff(self, capsys):
        code = main(
            ["rank", "--sites", "UT,OR", "--deadline", "0.0001"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "deadline_exceeded" in captured.out
        assert "budget" in captured.err
        assert "2 site(s) cut off" in captured.err

    def test_generous_deadline_reports_budget_only(self, capsys):
        code = main(_RANK_UT + ["--deadline", "600"])
        assert code == 0
        captured = capsys.readouterr()
        assert "complete" in captured.out
        assert "cut off" not in captured.err
        assert "of the 600.0s budget" in captured.err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_deadline_is_a_domain_error(self, value, capsys):
        assert main(_RANK_UT + [f"--deadline={value}"]) == 1
        captured = capsys.readouterr()
        assert "error: deadline_s must be positive and finite" in captured.err
        assert "budget" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_chunk_timeout_is_a_domain_error(self, value, capsys):
        code = main(
            ["rank", "--sites", "UT", "--workers", "2", "--chunk-timeout", value]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "error: chunk_timeout must be positive and finite" in captured.err
        assert captured.out == ""


class TestRankInterrupt:
    def _interrupt(self, monkeypatch, checkpoint=None):
        completed = SiteSweep(
            site="UT",
            status=SiteStatus.COMPLETE,
            total=160,
            completed=160,
            evaluations=(),
            result=None,
        )

        def interrupted_sweep(*a, **k):
            raise FleetInterrupted(
                completed=(completed,),
                pending=("OR", "TX"),
                strategy="all",
                done=160,
                checkpoint=checkpoint,
            )

        monkeypatch.setattr("repro.cli.sweep_fleet", interrupted_sweep)

    def test_partial_table_and_exit_130(self, monkeypatch, capsys):
        self._interrupt(monkeypatch, checkpoint="fleet.ckpt")
        code = main(["rank", "--sites", "UT,OR,TX", "--checkpoint", "fleet.ckpt"])
        assert code == 130
        captured = capsys.readouterr()
        assert "(partial: interrupted)" in captured.out
        assert "UT" in captured.out
        assert "1/3 sites" in captured.err
        assert "fleet.ckpt.<site>" in captured.err
        assert "--resume" in captured.err

    def test_uncheckpointed_interrupt_suggests_checkpointing(
        self, monkeypatch, capsys
    ):
        self._interrupt(monkeypatch, checkpoint=None)
        code = main(["rank", "--sites", "UT,OR,TX"])
        assert code == 130
        assert "--checkpoint" in capsys.readouterr().err

    def test_rank_resumes_from_journals(self, tmp_path, capsys):
        base = tmp_path / "rank.ckpt"
        assert main(_RANK_UT + ["--checkpoint", str(base)]) == 0
        first = capsys.readouterr().out
        assert (tmp_path / "rank.ckpt.ut").exists()
        code = main(_RANK_UT + ["--checkpoint", str(base), "--resume"])
        assert code == 0
        assert capsys.readouterr().out == first


class TestJournalCommand:
    def test_complete_journal_verdict(self, tmp_path, capsys):
        base = tmp_path / "rank.ckpt"
        assert main(_RANK_UT + ["--checkpoint", str(base)]) == 0
        capsys.readouterr()
        path = tmp_path / "rank.ckpt.ut"
        assert main(["journal", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Checkpoint journals" in out
        assert "complete" in out
        assert "160/160" in out

    def test_missing_journal_is_described_not_fatal(self, tmp_path, capsys):
        code = main(["journal", str(tmp_path / "nope.ckpt")])
        assert code == 0
        assert "damaged: no such file" in capsys.readouterr().out

    def test_damaged_journal_is_described(self, tmp_path, capsys):
        path = tmp_path / "bad.ckpt"
        path.write_text("this is not a journal\n")
        assert main(["journal", str(path)]) == 0
        assert "damaged:" in capsys.readouterr().out

    def test_multiple_journals_in_one_table(self, tmp_path, capsys):
        good = tmp_path / "rank.ckpt"
        assert main(_RANK_UT + ["--checkpoint", str(good)]) == 0
        capsys.readouterr()
        code = main(
            ["journal", str(tmp_path / "rank.ckpt.ut"), str(tmp_path / "gone")]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "complete" in out
        assert "damaged: no such file" in out
