"""Fault-tolerant, checkpointed, resumable sweeps (repro.resilience end-to-end).

The contract under test: however a sweep is interrupted or sabotaged —
killed workers, corrupt payloads, stalls, Ctrl-C — its final
``OptimizationResult`` must be *bitwise identical* to a fault-free serial
sweep, and every recovery action must be visible in the metrics.
"""

from __future__ import annotations

import io
import re

import pytest

from repro.core import Strategy, optimize, optimize_all_strategies, strategy_checkpoint_path
from repro.core.design import DesignSpace
from repro.obs import (
    ProgressTicker,
    SweepEvents,
    disable_metrics,
    enable_metrics,
    get_registry,
    reset_metrics,
)
from repro.resilience import FleetFaultPlan, SweepInterrupted

STRATEGY = Strategy.RENEWABLES_BATTERY


@pytest.fixture(scope="module")
def small_space() -> DesignSpace:
    return DesignSpace(
        solar_mw=(0.0, 30.0),
        wind_mw=(0.0, 30.0),
        battery_mwh=(0.0, 50.0),
        extra_capacity_fractions=(0.0,),
    )


@pytest.fixture(scope="module")
def serial_result(ut_context, small_space):
    """The fault-free serial ground truth every resilient sweep must match."""
    return optimize(ut_context, small_space, STRATEGY)


@pytest.fixture()
def fresh_metrics():
    """A clean, enabled default registry; restored to disabled after."""
    reset_metrics()
    enable_metrics()
    yield get_registry()
    disable_metrics()
    reset_metrics()


class TestFaultInjectedSweeps:
    def test_killed_worker_matches_serial_exactly(
        self, ut_context, small_space, serial_result
    ):
        result = optimize(
            ut_context,
            small_space,
            STRATEGY,
            workers=2,
            faults=FleetFaultPlan.from_spec("kill=0"),
        )
        assert result.evaluations == serial_result.evaluations
        assert result.best == serial_result.best

    def test_corrupt_payload_matches_serial_exactly(
        self, ut_context, small_space, serial_result
    ):
        result = optimize(
            ut_context,
            small_space,
            STRATEGY,
            workers=2,
            faults=FleetFaultPlan.from_spec("corrupt=1,3"),
        )
        assert result.evaluations == serial_result.evaluations

    def test_stalled_chunk_matches_serial_exactly(
        self, ut_context, small_space, serial_result
    ):
        result = optimize(
            ut_context,
            small_space,
            STRATEGY,
            workers=2,
            chunk_timeout=0.3,
            faults=FleetFaultPlan.from_spec("delay=0:3.0"),
        )
        assert result.evaluations == serial_result.evaluations

    def test_seeded_plan_matches_serial_exactly(
        self, ut_context, small_space, serial_result
    ):
        faults = FleetFaultPlan.from_spec("kill=1;corrupt=0")
        result = optimize(
            ut_context,
            small_space,
            STRATEGY,
            workers=2,
            faults=faults,
        )
        assert result.evaluations == serial_result.evaluations

    def test_exhausted_retries_degrade_to_serial_and_complete(
        self, ut_context, small_space, serial_result, fresh_metrics
    ):
        # A chunk that dies on *every* attempt: the pool breaks each round,
        # retries run out, and the survivors are evaluated in-process.
        result = optimize(
            ut_context,
            small_space,
            STRATEGY,
            workers=2,
            max_retries=1,
            faults=FleetFaultPlan.from_spec("kill=0;attempts=99"),
        )
        assert result.evaluations == serial_result.evaluations
        assert fresh_metrics.counter_value("serial_fallbacks") >= 1

    def test_retries_and_failures_are_counted(
        self, ut_context, small_space, fresh_metrics
    ):
        optimize(
            ut_context,
            small_space,
            STRATEGY,
            workers=2,
            faults=FleetFaultPlan.from_spec("corrupt=2"),
        )
        assert fresh_metrics.counter_value("chunk_failures") >= 1
        assert fresh_metrics.counter_value("chunk_retries") >= 1


class TestWorkerMetricsMerge:
    def test_parallel_sweep_counts_every_design(
        self, ut_context, small_space, serial_result, fresh_metrics
    ):
        result = optimize(ut_context, small_space, STRATEGY, workers=2)
        total = small_space.size(STRATEGY)
        assert result.evaluations == serial_result.evaluations
        assert fresh_metrics.counter_value("designs_evaluated") == total

    def test_serial_sweep_counts_every_design(
        self, ut_context, small_space, fresh_metrics
    ):
        optimize(ut_context, small_space, STRATEGY)
        assert fresh_metrics.counter_value("designs_evaluated") == small_space.size(
            STRATEGY
        )

    def test_faulted_parallel_sweep_does_not_double_count(
        self, ut_context, small_space, fresh_metrics
    ):
        # Corrupt chunks are evaluated in the worker but their snapshot is
        # discarded with the payload; the retry's snapshot lands once.
        optimize(
            ut_context,
            small_space,
            STRATEGY,
            workers=2,
            faults=FleetFaultPlan.from_spec("corrupt=0"),
        )
        assert fresh_metrics.counter_value("designs_evaluated") == small_space.size(
            STRATEGY
        )


class TestCheckpointResume:
    def test_checkpointed_sweep_writes_a_journal(
        self, tmp_path, ut_context, small_space, serial_result
    ):
        path = tmp_path / "sweep.ckpt"
        result = optimize(ut_context, small_space, STRATEGY, checkpoint=path)
        assert path.exists()
        assert result.evaluations == serial_result.evaluations

    def test_resume_of_a_complete_journal_skips_all_work(
        self, tmp_path, ut_context, small_space, serial_result, fresh_metrics
    ):
        path = tmp_path / "sweep.ckpt"
        optimize(ut_context, small_space, STRATEGY, checkpoint=path)
        reset_metrics()
        resumed = optimize(
            ut_context, small_space, STRATEGY, checkpoint=path, resume=True
        )
        total = small_space.size(STRATEGY)
        assert resumed.evaluations == serial_result.evaluations
        assert fresh_metrics.counter_value("checkpoint_designs_skipped") == total
        assert fresh_metrics.counter_value("checkpoint_chunks_skipped") >= 1
        assert fresh_metrics.counter_value("designs_evaluated") == 0

    def test_interrupt_flushes_journal_and_resume_completes(
        self, tmp_path, ut_context, small_space, serial_result, interrupting_bus
    ):
        path = tmp_path / "sweep.ckpt"
        with pytest.raises(SweepInterrupted) as excinfo:
            optimize(
                ut_context,
                small_space,
                STRATEGY,
                events=interrupting_bus(5),
                checkpoint=path,
            )
        assert excinfo.value.checkpoint == str(path)
        assert excinfo.value.strategy == STRATEGY.value
        assert path.exists()

        resumed = optimize(
            ut_context, small_space, STRATEGY, checkpoint=path, resume=True
        )
        assert resumed.evaluations == serial_result.evaluations
        assert resumed.best == serial_result.best

    def test_interrupt_without_checkpoint_stays_keyboard_interrupt(
        self, ut_context, small_space, interrupting_bus
    ):
        with pytest.raises(KeyboardInterrupt) as excinfo:
            optimize(ut_context, small_space, STRATEGY, events=interrupting_bus(1))
        assert not isinstance(excinfo.value, SweepInterrupted)

    def test_resumed_progress_starts_at_the_checkpointed_count(
        self, tmp_path, ut_context, small_space, interrupting_bus
    ):
        path = tmp_path / "sweep.ckpt"
        with pytest.raises(SweepInterrupted) as excinfo:
            optimize(
                ut_context,
                small_space,
                STRATEGY,
                events=interrupting_bus(5),
                checkpoint=path,
            )
        stream = io.StringIO()
        bus = SweepEvents()
        bus.subscribe(ProgressTicker(stream=stream, force=True, min_interval_s=0.0))
        optimize(
            ut_context,
            small_space,
            STRATEGY,
            events=bus,
            checkpoint=path,
            resume=True,
        )
        painted = [int(done) for done in re.findall(r"(\d+)/\d+", stream.getvalue())]
        total = small_space.size(STRATEGY)
        # The first paint jumps straight to the journaled count.
        assert painted[0] == excinfo.value.done > 0
        assert painted[-1] == total

    def test_interrupt_after_resume_counts_journaled_points(
        self, tmp_path, ut_context, small_space, interrupting_bus
    ):
        """``done`` counts every committed point, resumed ones included."""
        path = tmp_path / "sweep.ckpt"
        with pytest.raises(SweepInterrupted) as first:
            optimize(
                ut_context,
                small_space,
                STRATEGY,
                events=interrupting_bus(3),
                checkpoint=path,
            )
        with pytest.raises(SweepInterrupted) as second:
            optimize(
                ut_context,
                small_space,
                STRATEGY,
                events=interrupting_bus(2),
                checkpoint=path,
                resume=True,
            )
        # One design per chunk on this grid: 3 journaled + 2 live.
        assert (first.value.done, second.value.done) == (3, 5)
        assert second.value.total == small_space.size(STRATEGY)

    def test_fresh_checkpoint_run_truncates_an_old_journal(
        self, tmp_path, ut_context, small_space, serial_result
    ):
        path = tmp_path / "sweep.ckpt"
        optimize(ut_context, small_space, STRATEGY, checkpoint=path)
        first_size = path.stat().st_size
        # Without resume=True the journal is rewritten, not appended to.
        optimize(ut_context, small_space, STRATEGY, checkpoint=path)
        assert path.stat().st_size == first_size
        resumed = optimize(
            ut_context, small_space, STRATEGY, checkpoint=path, resume=True
        )
        assert resumed.evaluations == serial_result.evaluations

    def test_resume_requires_a_checkpoint_path(self, ut_context, small_space):
        with pytest.raises(ValueError, match="resume"):
            optimize(ut_context, small_space, STRATEGY, resume=True)

    def test_parallel_checkpointed_sweep_matches_serial(
        self, tmp_path, ut_context, small_space, serial_result
    ):
        path = tmp_path / "sweep.ckpt"
        result = optimize(
            ut_context, small_space, STRATEGY, workers=2, checkpoint=path
        )
        assert result.evaluations == serial_result.evaluations
        resumed = optimize(
            ut_context, small_space, STRATEGY, workers=2, checkpoint=path, resume=True
        )
        assert resumed.evaluations == serial_result.evaluations


class TestAllStrategiesCheckpoints:
    def test_per_strategy_journal_paths(self, tmp_path, ut_context, small_space):
        base = tmp_path / "sweep.ckpt"
        results = optimize_all_strategies(ut_context, small_space, checkpoint=base)
        assert set(results) == set(Strategy)
        for strategy in Strategy:
            per_strategy = strategy_checkpoint_path(base, strategy)
            assert per_strategy == f"{base}.{strategy.name.lower()}"
            assert (tmp_path / f"sweep.ckpt.{strategy.name.lower()}").exists()

    def test_no_checkpoint_means_no_paths(self):
        assert strategy_checkpoint_path(None, Strategy.RENEWABLES_ONLY) is None

    def test_resume_all_strategies(self, tmp_path, ut_context, small_space):
        base = tmp_path / "sweep.ckpt"
        first = optimize_all_strategies(ut_context, small_space, checkpoint=base)
        resumed = optimize_all_strategies(
            ut_context, small_space, checkpoint=base, resume=True
        )
        for strategy in Strategy:
            assert resumed[strategy].evaluations == first[strategy].evaluations
