"""Batched sweeps are an implementation detail: ``batch_size=N`` must be
invisible in the results.

The contract under test mirrors :mod:`tests.core.test_parallel_sweep`:
every combination of ``batch_size`` with workers, start methods,
checkpoints/resume, and the fleet merge must produce a
``DesignEvaluation`` sequence *equal* (frozen-dataclass ``==``, i.e.
bitwise on the float fields) to the per-design oracle: every grid point
through ``evaluate_design``, with no engine and no block evaluator.

The per-strategy batching floors would silently route these small test
grids down the per-design fallback, so the suite pins
``REPRO_BATCH_MIN_ROWS=1`` (the env var reaches spawned workers) and then
asserts via the ``designs_batched`` counter that the batched path really
ran — without that counter check, every test here would pass vacuously.
Under that floor a sweep without ``batch_size`` batches too, so no
reference here is an engine sweep: the oracle is built beside it.
"""

from __future__ import annotations

import pytest

from repro.core import Strategy, optimize, sweep_fleet
from repro.core.design import DesignSpace
from repro.core.evaluate import evaluate_design
from repro.obs import (
    disable_metrics,
    enable_metrics,
    get_registry,
    reset_metrics,
)

#: Batchable strategies (RENEWABLES_ONLY has no loop to batch and always
#: takes the per-design path).
BATCHED_STRATEGIES = [
    Strategy.RENEWABLES_BATTERY,
    Strategy.RENEWABLES_CAS,
    Strategy.RENEWABLES_BATTERY_CAS,
]


@pytest.fixture(autouse=True)
def force_batching(monkeypatch):
    """Drop the per-strategy batch floors so tiny test grids batch."""
    monkeypatch.setenv("REPRO_BATCH_MIN_ROWS", "1")


def per_design(context, space, strategy):
    """The oracle: every grid point through ``evaluate_design``, in grid order."""
    return tuple(
        evaluate_design(context, design, strategy)
        for design in space.points(strategy)
    )


def lowest(evaluations):
    """The lowest-carbon evaluation, as a sweep picks its ``best``."""
    return min(evaluations, key=lambda e: e.total_tons)


@pytest.fixture(scope="module")
def small_space() -> DesignSpace:
    return DesignSpace(
        solar_mw=(0.0, 30.0),
        wind_mw=(0.0, 30.0),
        battery_mwh=(0.0, 50.0),
        extra_capacity_fractions=(0.0,),
    )


@pytest.fixture()
def fresh_metrics():
    """A clean, enabled default registry; restored to disabled after."""
    reset_metrics()
    enable_metrics()
    yield get_registry()
    disable_metrics()
    reset_metrics()


class TestBatchedEqualsSerial:
    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_every_strategy_matches_legacy_path(
        self, ut_context, small_space, strategy
    ):
        legacy = per_design(ut_context, small_space, strategy)
        batched = optimize(ut_context, small_space, strategy, batch_size=4)
        assert legacy == batched.evaluations
        assert lowest(legacy) == batched.best

    def test_batched_path_actually_ran(
        self, ut_context, small_space, fresh_metrics
    ):
        total = small_space.size(Strategy.RENEWABLES_BATTERY)
        optimize(
            ut_context, small_space, Strategy.RENEWABLES_BATTERY, batch_size=total
        )
        assert fresh_metrics.counter_value("designs_batched") == total
        assert fresh_metrics.counter_value("designs_evaluated") == total

    def test_batch_size_one_matches(self, ut_context, small_space):
        """batch_size=1 is the degenerate D=1 block per design — the CI
        diff smoke's cheap oracle."""
        legacy = per_design(ut_context, small_space, Strategy.RENEWABLES_BATTERY)
        batched = optimize(
            ut_context, small_space, Strategy.RENEWABLES_BATTERY, batch_size=1
        )
        assert legacy == batched.evaluations

    @pytest.mark.parametrize("strategy", BATCHED_STRATEGIES)
    def test_ragged_last_chunk(self, ut_context, small_space, strategy):
        """A batch size that does not divide the grid leaves a short final
        block; it must evaluate identically to the full-width ones."""
        total = small_space.size(strategy)
        batch_size = 3
        assert total % batch_size != 0
        legacy = per_design(ut_context, small_space, strategy)
        batched = optimize(
            ut_context, small_space, strategy, batch_size=batch_size
        )
        assert legacy == batched.evaluations

    def test_whole_grid_in_one_block(self, ut_context, small_space):
        legacy = per_design(
            ut_context, small_space, Strategy.RENEWABLES_BATTERY_CAS
        )
        batched = optimize(
            ut_context,
            small_space,
            Strategy.RENEWABLES_BATTERY_CAS,
            batch_size=small_space.size(Strategy.RENEWABLES_BATTERY_CAS),
        )
        assert legacy == batched.evaluations

    def test_rejects_non_positive_batch_size(self, ut_context, small_space):
        with pytest.raises(ValueError, match="batch_size"):
            optimize(
                ut_context,
                small_space,
                Strategy.RENEWABLES_BATTERY,
                batch_size=0,
            )


class TestBatchedParallelSweeps:
    def test_parallel_batched_equals_serial(self, ut_context, small_space):
        serial = per_design(
            ut_context, small_space, Strategy.RENEWABLES_BATTERY_CAS
        )
        parallel = optimize(
            ut_context,
            small_space,
            Strategy.RENEWABLES_BATTERY_CAS,
            workers=2,
            batch_size=4,
        )
        assert serial == parallel.evaluations
        assert lowest(serial) == parallel.best

    def test_spawned_workers_batch_identically(
        self, ut_context, small_space, monkeypatch
    ):
        """Spawned pools re-import everything; the REPRO_BATCH_MIN_ROWS
        override and the batched chunk routing must survive the trip."""
        monkeypatch.setenv("REPRO_MP_START_METHOD", "spawn")
        serial = per_design(ut_context, small_space, Strategy.RENEWABLES_BATTERY)
        spawned = optimize(
            ut_context,
            small_space,
            Strategy.RENEWABLES_BATTERY,
            workers=2,
            batch_size=4,
        )
        assert serial == spawned.evaluations


class TestBatchedCheckpointResume:
    def test_resume_of_a_complete_batched_journal(
        self, tmp_path, ut_context, small_space
    ):
        path = tmp_path / "sweep.ckpt"
        serial = per_design(ut_context, small_space, Strategy.RENEWABLES_BATTERY)
        fresh = optimize(
            ut_context,
            small_space,
            Strategy.RENEWABLES_BATTERY,
            batch_size=4,
            checkpoint=path,
        )
        resumed = optimize(
            ut_context,
            small_space,
            Strategy.RENEWABLES_BATTERY,
            batch_size=4,
            checkpoint=path,
            resume=True,
        )
        assert fresh.evaluations == serial
        assert resumed.evaluations == serial
        assert resumed.best == lowest(serial)

    def test_interrupted_batched_sweep_resumes_batched(
        self, tmp_path, ut_context, small_space
    ):
        from repro.resilience import SweepInterrupted

        path = tmp_path / "sweep.ckpt"
        serial = per_design(ut_context, small_space, Strategy.RENEWABLES_BATTERY)
        calls = 0

        def interrupt_midway(done, total, label):
            nonlocal calls
            calls += 1
            if calls == 2:
                raise KeyboardInterrupt

        with pytest.raises(SweepInterrupted):
            optimize(
                ut_context,
                small_space,
                Strategy.RENEWABLES_BATTERY,
                batch_size=2,
                progress=interrupt_midway,
                checkpoint=path,
            )
        resumed = optimize(
            ut_context,
            small_space,
            Strategy.RENEWABLES_BATTERY,
            batch_size=2,
            checkpoint=path,
            resume=True,
        )
        assert resumed.evaluations == serial
        assert resumed.best == lowest(serial)

    def test_legacy_journal_resumes_under_batching(
        self, tmp_path, ut_context, small_space, monkeypatch, fresh_metrics
    ):
        """A checkpoint written by the per-design path restores cleanly
        into a batched sweep (the fingerprint ignores batch_size)."""
        path = tmp_path / "sweep.ckpt"
        # A floor no block reaches writes the journal per design.
        monkeypatch.setenv("REPRO_BATCH_MIN_ROWS", "1000000")
        serial = optimize(
            ut_context,
            small_space,
            Strategy.RENEWABLES_BATTERY,
            checkpoint=path,
        )
        assert fresh_metrics.counter_value("designs_batched") == 0
        monkeypatch.setenv("REPRO_BATCH_MIN_ROWS", "1")
        resumed = optimize(
            ut_context,
            small_space,
            Strategy.RENEWABLES_BATTERY,
            batch_size=4,
            checkpoint=path,
            resume=True,
        )
        assert resumed.evaluations == serial.evaluations


class TestFleetMerge:
    """Serial batched fleet sweeps merge each round of site chunks into
    one evaluation; ``batch_size=3`` splits each 8-point site grid into
    three chunks, so the fleet runs three merged rounds."""

    @pytest.mark.parametrize(
        "strategy", [Strategy.RENEWABLES_BATTERY, Strategy.RENEWABLES_BATTERY_CAS]
    )
    def test_fleet_equals_per_site_sweeps(
        self, ut_context, or_context, small_space, strategy
    ):
        sites = [("UT", ut_context, small_space), ("OR", or_context, small_space)]
        fleet = sweep_fleet(sites, strategy, batch_size=3)
        assert fleet.complete
        singles = [
            per_design(context, space, strategy) for _, context, space in sites
        ]
        assert len(fleet.sites) == len(singles)
        for merged, single in zip(fleet.sites, singles):
            assert merged.result.evaluations == single
            assert merged.result.best == lowest(single)

    def test_fleet_chunked_by_batch_size(
        self, ut_context, or_context, small_space
    ):
        """A batch_size smaller than one site's grid splits rows mid-site;
        results must not change."""
        sites = [("UT", ut_context, small_space), ("OR", or_context, small_space)]
        whole = sweep_fleet(sites, Strategy.RENEWABLES_BATTERY, batch_size=512)
        chunked = sweep_fleet(sites, Strategy.RENEWABLES_BATTERY, batch_size=3)
        for a, b in zip(whole.sites, chunked.sites):
            assert a.result.evaluations == b.result.evaluations

    def test_fleet_rejects_bad_batch_size(self, ut_context, small_space):
        with pytest.raises(ValueError, match="batch_size"):
            sweep_fleet(
                [("UT", ut_context, small_space)],
                Strategy.RENEWABLES_BATTERY,
                batch_size=0,
            )
