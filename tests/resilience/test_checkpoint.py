"""Checkpoint journal: exact serialization, recovery, fingerprint safety."""

from __future__ import annotations

import json

import pytest

from repro.core import Strategy, evaluate_design
from repro.core.design import DesignSpace
from repro.obs import disable_metrics, enable_metrics, metrics_snapshot, reset_metrics
from repro.resilience import (
    JOURNAL_VERSION,
    CheckpointError,
    CheckpointJournal,
    CheckpointMismatchError,
    ChunkValidationError,
    JournalHeader,
    SweepInterrupted,
    inspect_journal,
    evaluation_from_json,
    evaluation_to_json,
    load_resumable_chunks,
    sweep_fingerprint,
    validate_chunk_result,
)


@pytest.fixture(scope="module")
def space() -> DesignSpace:
    return DesignSpace(
        solar_mw=(0.0, 30.0),
        wind_mw=(0.0, 30.0),
        battery_mwh=(0.0, 50.0),
        extra_capacity_fractions=(0.0,),
    )


@pytest.fixture(scope="module")
def evaluations(ut_context, space):
    designs = list(space.points(Strategy.RENEWABLES_BATTERY))[:4]
    return [
        evaluate_design(ut_context, design, Strategy.RENEWABLES_BATTERY)
        for design in designs
    ]


class TestSerialization:
    def test_round_trip_is_exact(self, evaluations):
        for evaluation in evaluations:
            wire = json.loads(json.dumps(evaluation_to_json(evaluation)))
            assert evaluation_from_json(wire) == evaluation

    def test_round_trip_preserves_design_and_strategy(self, evaluations):
        restored = evaluation_from_json(evaluation_to_json(evaluations[0]))
        assert restored.design == evaluations[0].design
        assert restored.strategy is evaluations[0].strategy

    def test_damaged_record_raises(self, evaluations):
        record = evaluation_to_json(evaluations[0])
        del record["coverage"]
        with pytest.raises(KeyError):
            evaluation_from_json(record)


class TestFingerprint:
    def test_stable_across_calls(self, ut_context, space):
        a = sweep_fingerprint(ut_context, space, Strategy.RENEWABLES_BATTERY)
        b = sweep_fingerprint(ut_context, space, Strategy.RENEWABLES_BATTERY)
        assert a == b

    def test_differs_by_strategy(self, ut_context, space):
        a = sweep_fingerprint(ut_context, space, Strategy.RENEWABLES_ONLY)
        b = sweep_fingerprint(ut_context, space, Strategy.RENEWABLES_BATTERY)
        assert a != b

    def test_differs_by_space(self, ut_context, space):
        other = DesignSpace(
            solar_mw=(0.0, 40.0),
            wind_mw=(0.0, 30.0),
            battery_mwh=(0.0, 50.0),
            extra_capacity_fractions=(0.0,),
        )
        assert sweep_fingerprint(
            ut_context, space, Strategy.RENEWABLES_ONLY
        ) != sweep_fingerprint(ut_context, other, Strategy.RENEWABLES_ONLY)

    def test_differs_by_site(self, ut_context, or_context, space):
        assert sweep_fingerprint(
            ut_context, space, Strategy.RENEWABLES_ONLY
        ) != sweep_fingerprint(or_context, space, Strategy.RENEWABLES_ONLY)


def _header(fingerprint: str, total: int = 8) -> JournalHeader:
    return JournalHeader(
        version=JOURNAL_VERSION,
        fingerprint=fingerprint,
        strategy=Strategy.RENEWABLES_BATTERY.name,
        total=total,
    )


class TestJournal:
    def test_write_then_load_round_trips(self, tmp_path, ut_context, space, evaluations):
        fingerprint = sweep_fingerprint(ut_context, space, Strategy.RENEWABLES_BATTERY)
        path = tmp_path / "sweep.ckpt"
        with CheckpointJournal(path, _header(fingerprint)) as journal:
            journal.append_chunk(0, evaluations[:2])
            journal.append_chunk(4, evaluations[2:])
        chunks = load_resumable_chunks(
            path, fingerprint, Strategy.RENEWABLES_BATTERY, total=8
        )
        assert set(chunks) == {0, 4}
        assert chunks[0] == evaluations[:2]
        assert chunks[4] == evaluations[2:]

    def test_missing_file_is_a_fresh_start(self, tmp_path):
        chunks = load_resumable_chunks(
            tmp_path / "absent.ckpt", "abc", Strategy.RENEWABLES_BATTERY, total=8
        )
        assert chunks == {}

    def test_truncated_final_line_is_dropped(self, tmp_path, ut_context, space, evaluations):
        fingerprint = sweep_fingerprint(ut_context, space, Strategy.RENEWABLES_BATTERY)
        path = tmp_path / "sweep.ckpt"
        with CheckpointJournal(path, _header(fingerprint)) as journal:
            journal.append_chunk(0, evaluations[:2])
            journal.append_chunk(4, evaluations[2:])
        crashed = path.read_text()[:-30]  # cut mid-way through the last record
        path.write_text(crashed)
        chunks = load_resumable_chunks(
            path, fingerprint, Strategy.RENEWABLES_BATTERY, total=8
        )
        assert set(chunks) == {0}

    def test_damaged_middle_line_raises(self, tmp_path, ut_context, space, evaluations):
        fingerprint = sweep_fingerprint(ut_context, space, Strategy.RENEWABLES_BATTERY)
        path = tmp_path / "sweep.ckpt"
        with CheckpointJournal(path, _header(fingerprint)) as journal:
            journal.append_chunk(0, evaluations[:2])
            journal.append_chunk(4, evaluations[2:])
        lines = path.read_text().splitlines()
        lines[1] = lines[1][:-30]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError, match="not valid JSON"):
            load_resumable_chunks(path, fingerprint, Strategy.RENEWABLES_BATTERY, 8)

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "empty.ckpt"
        path.write_text("")
        with pytest.raises(CheckpointError, match="empty"):
            load_resumable_chunks(path, "abc", Strategy.RENEWABLES_BATTERY, 8)

    def test_missing_header_raises(self, tmp_path):
        path = tmp_path / "headless.ckpt"
        path.write_text('{"kind": "chunk", "start": 0, "evaluations": []}\n')
        with pytest.raises(CheckpointError, match="header"):
            load_resumable_chunks(path, "abc", Strategy.RENEWABLES_BATTERY, 8)

    def test_future_version_raises(self, tmp_path):
        path = tmp_path / "future.ckpt"
        header = {
            "kind": "header",
            "version": JOURNAL_VERSION + 1,
            "fingerprint": "abc",
            "strategy": "RENEWABLES_BATTERY",
            "total": 8,
        }
        path.write_text(json.dumps(header) + "\n")
        with pytest.raises(CheckpointError, match="version"):
            load_resumable_chunks(path, "abc", Strategy.RENEWABLES_BATTERY, 8)

    def test_fingerprint_mismatch_refuses_resume(self, tmp_path, evaluations):
        path = tmp_path / "other.ckpt"
        with CheckpointJournal(path, _header("one-sweep")) as journal:
            journal.append_chunk(0, evaluations[:2])
        with pytest.raises(CheckpointMismatchError, match="fingerprint"):
            load_resumable_chunks(path, "another-sweep", Strategy.RENEWABLES_BATTERY, 8)

    def test_total_mismatch_refuses_resume(self, tmp_path, evaluations):
        path = tmp_path / "short.ckpt"
        with CheckpointJournal(path, _header("fp", total=8)) as journal:
            journal.append_chunk(0, evaluations[:2])
        with pytest.raises(CheckpointMismatchError, match="total"):
            load_resumable_chunks(path, "fp", Strategy.RENEWABLES_BATTERY, total=99)

    def test_chunk_past_total_raises(self, tmp_path, evaluations):
        path = tmp_path / "overflow.ckpt"
        with CheckpointJournal(path, _header("fp", total=3)) as journal:
            journal.append_chunk(2, evaluations[:2])
        with pytest.raises(CheckpointError, match="exceeds"):
            load_resumable_chunks(path, "fp", Strategy.RENEWABLES_BATTERY, total=3)

    def test_truncate_overwrites_a_previous_run(self, tmp_path, evaluations):
        path = tmp_path / "fresh.ckpt"
        with CheckpointJournal(path, _header("fp")) as journal:
            journal.append_chunk(0, evaluations[:2])
            journal.append_chunk(4, evaluations[2:])
        with CheckpointJournal(path, _header("fp"), truncate=True) as journal:
            journal.append_chunk(0, evaluations[:2])
        chunks = load_resumable_chunks(path, "fp", Strategy.RENEWABLES_BATTERY, 8)
        assert set(chunks) == {0}

    def test_append_preserves_prior_chunks(self, tmp_path, evaluations):
        path = tmp_path / "resumed.ckpt"
        with CheckpointJournal(path, _header("fp")) as journal:
            journal.append_chunk(0, evaluations[:2])
        with CheckpointJournal(path, _header("fp")) as journal:  # resume: append
            journal.append_chunk(4, evaluations[2:])
        chunks = load_resumable_chunks(path, "fp", Strategy.RENEWABLES_BATTERY, 8)
        assert set(chunks) == {0, 4}

    def test_counts_written_work(self, tmp_path, evaluations):
        reset_metrics()
        enable_metrics()
        try:
            journal = CheckpointJournal(tmp_path / "counts.ckpt", _header("fp"))
            journal.append_chunk(0, evaluations[:2])
            journal.append_chunk(2, evaluations[2:])
            journal.close()
            counters = metrics_snapshot()["counters"]
        finally:
            disable_metrics()
            reset_metrics()
        assert counters["checkpoint_chunks_written"] == 2

    def test_close_is_idempotent(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "idem.ckpt", _header("fp"))
        journal.close()
        journal.close()


class TestSweepInterrupted:
    def test_is_a_keyboard_interrupt(self):
        error = SweepInterrupted("sweep.ckpt", done=3, total=10, strategy="battery")
        assert isinstance(error, KeyboardInterrupt)
        with pytest.raises(KeyboardInterrupt):
            raise error

    def test_not_swallowed_by_except_exception(self):
        caught = None
        try:
            try:
                raise SweepInterrupted("c", 1, 2, "s")
            except Exception:  # noqa: BLE001 — the point of the test
                pytest.fail("except Exception must not catch SweepInterrupted")
        except SweepInterrupted as error:  # repro-lint: disable=RL006 — the test asserts the interrupt IS catchable by name
            caught = error
        assert caught is not None

    def test_message_names_the_journal(self):
        message = str(SweepInterrupted("sweep.ckpt", done=3, total=10, strategy="b"))
        assert "3/10" in message and "sweep.ckpt" in message


class TestValidateChunkResult:
    def test_accepts_a_clean_payload(self, evaluations):
        payload = (4, evaluations, None)
        assert validate_chunk_result(payload, 4, len(evaluations)) == payload

    def test_rejects_non_tuple(self):
        with pytest.raises(ChunkValidationError, match="3-tuple"):
            validate_chunk_result([1, 2, 3, 4], 0, 4)

    def test_rejects_wrong_start(self, evaluations):
        with pytest.raises(ChunkValidationError, match="start"):
            validate_chunk_result((1, evaluations, None), 0, len(evaluations))

    def test_rejects_wrong_length(self, evaluations):
        with pytest.raises(ChunkValidationError, match="expected"):
            validate_chunk_result((0, evaluations[:-1], None), 0, len(evaluations))

    def test_rejects_wrong_element_type(self, evaluations):
        from repro.resilience import corrupt_payload

        damaged = corrupt_payload(evaluations)
        with pytest.raises(ChunkValidationError, match="DesignEvaluation"):
            validate_chunk_result((0, damaged, None), 0, len(damaged))

    def test_rejects_non_dict_metrics(self, evaluations):
        with pytest.raises(ChunkValidationError, match="metrics"):
            validate_chunk_result(
                (0, evaluations, "bogus"), 0, len(evaluations)
            )


class TestInspectJournal:
    """``inspect_journal`` powers ``repro journal``: describe, never raise."""

    def test_complete_journal(self, tmp_path, evaluations):
        path = tmp_path / "done.ckpt"
        with CheckpointJournal(path, _header("fp", total=4)) as journal:
            journal.append_chunk(0, evaluations)
        info = inspect_journal(path)
        assert info.error is None
        assert info.fingerprint == "fp"
        assert info.strategy == Strategy.RENEWABLES_BATTERY.name
        assert (info.chunks, info.evaluations_done, info.total) == (1, 4, 4)
        assert info.complete and not info.resumable
        assert info.verdict() == "complete"

    def test_resumable_journal(self, tmp_path, evaluations):
        path = tmp_path / "partial.ckpt"
        with CheckpointJournal(path, _header("fp", total=8)) as journal:
            journal.append_chunk(0, evaluations)
        info = inspect_journal(path)
        assert info.resumable and not info.complete
        assert info.verdict() == "resumable"

    def test_header_only_journal(self, tmp_path):
        path = tmp_path / "header.ckpt"
        with CheckpointJournal(path, _header("fp")) as journal:
            journal._ensure_open()  # write the header, no chunks
        info = inspect_journal(path)
        assert info.error is None and info.evaluations_done == 0
        assert info.verdict() == "empty (header only)"

    def test_missing_file_is_described_not_raised(self, tmp_path):
        info = inspect_journal(tmp_path / "absent.ckpt")
        assert info.error == "no such file"
        assert info.verdict().startswith("damaged:")

    def test_damaged_journal_is_described_not_raised(self, tmp_path):
        path = tmp_path / "broken.ckpt"
        path.write_text("not json\n")
        info = inspect_journal(path)
        assert info.error is not None
        assert "damaged" in info.verdict()
