"""CLI resilience flags: checkpoints, resume, fault injection, interrupts."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.resilience import SweepInterrupted

_SMALL_OPTIMIZE = [
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
]


class TestCheckpointFlags:
    def test_checkpoint_writes_a_journal(self, tmp_path, capsys):
        path = tmp_path / "sweep.ckpt"
        code = main(_SMALL_OPTIMIZE + ["--checkpoint", str(path)])
        assert code == 0
        assert path.exists()
        assert "Carbon-optimal designs, UT" in capsys.readouterr().out

    def test_resume_reproduces_the_original_output(self, tmp_path, capsys):
        path = tmp_path / "sweep.ckpt"
        assert main(_SMALL_OPTIMIZE + ["--checkpoint", str(path)]) == 0
        first = capsys.readouterr().out
        code = main(_SMALL_OPTIMIZE + ["--checkpoint", str(path), "--resume"])
        assert code == 0
        assert capsys.readouterr().out == first

    def test_each_strategy_gets_its_own_journal(self, tmp_path, capsys):
        path = tmp_path / "sweep.ckpt"
        code = main(
            [
                "optimize",
                "UT",
                "--renewable-steps",
                "2",
                "--battery-hours",
                "0",
                "5",
                "--extra-capacity",
                "0",
                "--checkpoint",
                str(path),
            ]
        )
        assert code == 0
        journals = sorted(p.name for p in tmp_path.iterdir())
        assert len(journals) == 4
        assert all(name.startswith("sweep.ckpt.") for name in journals)

    def test_stats_checkpoints_per_strategy(self, tmp_path, capsys):
        path = tmp_path / "stats.ckpt"
        code = main(["stats", "UT", "--checkpoint", str(path)])
        assert code == 0
        assert len(list(tmp_path.iterdir())) == 4


class TestFailurePaths:
    def test_resume_without_checkpoint_is_an_error(self, capsys):
        code = main(_SMALL_OPTIMIZE + ["--resume"])
        assert code == 1
        assert "resume" in capsys.readouterr().err

    def test_corrupt_checkpoint_file_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "damaged.ckpt"
        path.write_text("not-json\nalso-not-json\n")
        code = main(_SMALL_OPTIMIZE + ["--checkpoint", str(path), "--resume"])
        assert code == 1
        assert "checkpoint" in capsys.readouterr().err

    def test_mismatched_fingerprint_refuses_resume(self, tmp_path, capsys):
        path = tmp_path / "sweep.ckpt"
        assert main(_SMALL_OPTIMIZE + ["--checkpoint", str(path)]) == 0
        capsys.readouterr()
        code = main(
            _SMALL_OPTIMIZE
            + ["--seed", "1", "--checkpoint", str(path), "--resume"]
        )
        assert code == 1
        assert "fingerprint" in capsys.readouterr().err

    def test_negative_workers_is_a_domain_error(self, capsys):
        code = main(_SMALL_OPTIMIZE + ["--workers", "-2"])
        assert code == 1
        assert "workers" in capsys.readouterr().err

    def test_bad_fault_plan_spec_is_an_error(self, capsys):
        code = main(_SMALL_OPTIMIZE + ["--fault-plan", "explode=7"])
        assert code == 1
        assert "fault" in capsys.readouterr().err

    def test_fault_plan_site_outside_the_sweep_is_an_error(self, capsys):
        args = ["optimize", "NE"] + _SMALL_OPTIMIZE[2:]
        code = main(args + ["--workers", "2", "--fault-plan", "UT:kill"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "'UT'" in err and "'NE'" in err

    def test_serial_fault_plan_warns_it_cannot_fire(self, capsys):
        code = main(_SMALL_OPTIMIZE + ["--fault-plan", "kill=0"])
        assert code == 0
        assert "--workers 1" in capsys.readouterr().err


class TestFaultInjectedRuns:
    def test_fault_injected_sweep_matches_a_clean_run(self, capsys):
        clean = main(_SMALL_OPTIMIZE + ["--workers", "2"])
        assert clean == 0
        expected = capsys.readouterr().out
        code = main(
            _SMALL_OPTIMIZE + ["--workers", "2", "--fault-plan", "kill=0"]
        )
        assert code == 0
        assert capsys.readouterr().out == expected

    def test_corrupting_fault_plan_matches_a_clean_run(self, capsys):
        clean = main(_SMALL_OPTIMIZE + ["--workers", "2"])
        assert clean == 0
        expected = capsys.readouterr().out
        code = main(
            _SMALL_OPTIMIZE
            + ["--workers", "2", "--fault-plan", "corrupt=1;kill=2"]
        )
        assert code == 0
        assert capsys.readouterr().out == expected


class TestInterrupts:
    def test_sweep_interrupted_exits_130_with_resume_hint(self, monkeypatch, capsys):
        def interrupted_handler(args):
            raise SweepInterrupted(
                "sweep.ckpt", done=12, total=40, strategy="renewables+battery"
            )

        monkeypatch.setattr("repro.cli.cmd_optimize", interrupted_handler)
        code = main(_SMALL_OPTIMIZE)
        assert code == 130
        err = capsys.readouterr().err
        assert "12/40" in err
        assert "sweep.ckpt" in err
        assert "--resume" in err

    def test_plain_keyboard_interrupt_exits_130(self, monkeypatch, capsys):
        def interrupted_handler(args):
            raise KeyboardInterrupt

        monkeypatch.setattr("repro.cli.cmd_optimize", interrupted_handler)
        code = main(_SMALL_OPTIMIZE)
        assert code == 130
        assert "interrupted" in capsys.readouterr().err


class TestShmFlag:
    def test_no_shm_matches_a_shared_memory_run(self, capsys):
        clean = main(_SMALL_OPTIMIZE + ["--workers", "2"])
        assert clean == 0
        clean_out = capsys.readouterr().out
        code = main(_SMALL_OPTIMIZE + ["--workers", "2", "--no-shm"])
        assert code == 0
        assert capsys.readouterr().out == clean_out

    def test_no_shm_is_accepted_serially(self, capsys):
        assert main(_SMALL_OPTIMIZE + ["--no-shm"]) == 0
