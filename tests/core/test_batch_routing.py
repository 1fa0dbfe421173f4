"""The default per-strategy routing table of :func:`evaluate_block_sites`.

Under the default floors (no ``REPRO_BATCH_MIN_ROWS``) battery blocks
never batch: every row runs the seeded serial kernel.
Combined blocks batch from 160 rows.  Whichever way a block is routed,
its evaluations must equal the per-design loop bit for bit; the counters
prove which path ran.
"""

from __future__ import annotations

import pytest

from repro.core import SweepEngine, optimize
from repro.core import engine as engine_module
from repro.core import evaluate as evaluate_module
from repro.core.design import DesignSpace, Strategy
from repro.core.engine import sweep_chunk_size
from repro.core.evaluate import (
    evaluate_block,
    evaluate_block_sites,
    evaluate_design,
)
from repro.obs import disable_metrics, enable_metrics, get_registry, reset_metrics

#: 4 x 4 investments x 5 batteries: 80 battery rows, 160 combined rows.
SPACE = DesignSpace(
    solar_mw=(0.0, 20.0, 40.0, 80.0),
    wind_mw=(0.0, 20.0, 40.0, 80.0),
    battery_mwh=(0.0, 10.0, 25.0, 50.0, 100.0),
    extra_capacity_fractions=(0.0, 0.5),
)

#: 8 x 8 investments x 4 extra capacities: 256 CAS rows, which the default
#: chunking cuts into 8-row chunks, the CAS batch floor.
CAS_SPACE = DesignSpace(
    solar_mw=tuple(10.0 * i for i in range(8)),
    wind_mw=tuple(10.0 * i for i in range(8)),
    battery_mwh=(0.0,),
    extra_capacity_fractions=(0.0, 0.25, 0.5, 1.0),
)


@pytest.fixture(autouse=True)
def default_floors(monkeypatch):
    monkeypatch.delenv("REPRO_BATCH_MIN_ROWS", raising=False)


@pytest.fixture()
def counters():
    """A clean, enabled default registry; restored to disabled after."""
    reset_metrics()
    enable_metrics()
    yield get_registry()
    disable_metrics()
    reset_metrics()


def per_design(context, designs, strategy):
    return [evaluate_design(context, design, strategy) for design in designs]


class TestBatteryBlocks:
    def test_80_row_block_runs_seeded_serial(self, ut_context, counters):
        designs = list(SPACE.points(Strategy.RENEWABLES_BATTERY))
        assert len(designs) == 80
        block = evaluate_block(ut_context, designs, Strategy.RENEWABLES_BATTERY)
        assert counters.counter_value("designs_batched") == 0
        assert counters.counter_value("battery_runs_seeded") == 80
        assert block == per_design(ut_context, designs, Strategy.RENEWABLES_BATTERY)

    def test_fleet_battery_blocks_run_seeded_serial(
        self, ut_context, or_context, counters
    ):
        designs = list(SPACE.points(Strategy.RENEWABLES_BATTERY))
        blocks = [(ut_context, designs), (or_context, designs)]
        merged = evaluate_block_sites(blocks, Strategy.RENEWABLES_BATTERY)
        assert counters.counter_value("designs_batched") == 0
        assert counters.counter_value("battery_runs_seeded") == 160
        for (context, _), evaluations in zip(blocks, merged):
            assert evaluations == per_design(
                context, designs, Strategy.RENEWABLES_BATTERY
            )

    def test_min_rows_still_forces_the_batched_kernel(
        self, ut_context, counters, monkeypatch
    ):
        monkeypatch.setenv("REPRO_BATCH_MIN_ROWS", "1")
        designs = list(SPACE.points(Strategy.RENEWABLES_BATTERY))[:10]
        block = evaluate_block(ut_context, designs, Strategy.RENEWABLES_BATTERY)
        assert counters.counter_value("designs_batched") == 10
        assert counters.counter_value("battery_runs_seeded") == 0
        assert block == per_design(ut_context, designs, Strategy.RENEWABLES_BATTERY)


class TestCombinedFloor:
    @pytest.fixture(scope="class")
    def designs_and_oracle(self, ut_context):
        designs = list(SPACE.points(Strategy.RENEWABLES_BATTERY_CAS))
        assert len(designs) == 160
        return designs, per_design(
            ut_context, designs, Strategy.RENEWABLES_BATTERY_CAS
        )

    def test_just_below_the_floor_runs_per_design(
        self, ut_context, designs_and_oracle, counters
    ):
        designs, oracle = designs_and_oracle
        block = evaluate_block(
            ut_context, designs[:159], Strategy.RENEWABLES_BATTERY_CAS
        )
        assert counters.counter_value("designs_batched") == 0
        assert block == oracle[:159]

    def test_at_the_floor_batches(self, ut_context, designs_and_oracle, counters):
        designs, oracle = designs_and_oracle
        block = evaluate_block(ut_context, designs, Strategy.RENEWABLES_BATTERY_CAS)
        assert counters.counter_value("designs_batched") == 160
        assert block == oracle

    def test_one_site_block_routes_itself_with_its_1d_demand(
        self, ut_context, designs_and_oracle, counters, monkeypatch
    ):
        """A one-site block reaches the kernel without a second router.

        ``evaluate_block_sites`` routes every block itself (it must not
        hand a lone site to ``evaluate_block``), and a single site passes
        its ``(H,)`` demand with no row-to-site index.
        """
        designs, oracle = designs_and_oracle
        kernel_calls = []
        kernel = evaluate_module.combined_run_batch

        def spy(demand, supply, **kwargs):
            kernel_calls.append((demand.shape, supply.shape, kwargs.get("row_sites")))
            return kernel(demand, supply, **kwargs)

        def no_second_router(*args, **kwargs):
            raise AssertionError("evaluate_block_sites delegated to evaluate_block")

        monkeypatch.setattr(evaluate_module, "combined_run_batch", spy)
        monkeypatch.setattr(evaluate_module, "evaluate_block", no_second_router)
        (block,) = evaluate_block_sites(
            [(ut_context, designs)], Strategy.RENEWABLES_BATTERY_CAS
        )
        assert counters.counter_value("designs_batched") == 160
        n_hours = ut_context.demand.power.calendar.n_hours
        assert kernel_calls == [((n_hours,), (160, n_hours), None)]
        assert block == oracle


class TestSweepsWithoutBatchSize:
    """Sweep chunks route by their row count alone, whatever ``batch_size``."""

    @pytest.fixture(scope="class")
    def oracle(self, ut_context):
        designs = list(CAS_SPACE.points(Strategy.RENEWABLES_CAS))
        assert sweep_chunk_size(len(designs)) == 8
        return per_design(ut_context, designs, Strategy.RENEWABLES_CAS)

    def test_serial_optimize_batches_cas_chunks(self, ut_context, oracle, counters):
        result = optimize(ut_context, CAS_SPACE, Strategy.RENEWABLES_CAS)
        assert counters.counter_value("designs_batched") > 0
        assert list(result.evaluations) == oracle

    def test_pooled_workers_batch_cas_chunks(self, ut_context, oracle, counters):
        engine = SweepEngine(
            [("UT", ut_context, CAS_SPACE)], Strategy.RENEWABLES_CAS, workers=2
        )
        try:
            engine.setup()
            engine.dispatch()
        finally:
            engine.cleanup()
        assert engine.use_pool
        # Worker chunk telemetry merges into the parent's registry.
        assert counters.counter_value("designs_batched") > 0
        assert counters.counter_value("serial_fallbacks") == 0
        (state,) = engine.states
        assert state.results == oracle


class TestRenewablesOnly:
    def test_blocks_run_per_design_before_any_batch_work(
        self, ut_context, counters, monkeypatch
    ):
        """Renewables-only rows never constrain, project or batch a block,
        whatever the floor says."""
        monkeypatch.setenv("REPRO_BATCH_MIN_ROWS", "1")

        def no_segment(*args, **kwargs):
            raise AssertionError("a renewables-only block reached _batch_segment")

        monkeypatch.setattr(evaluate_module, "_batch_segment", no_segment)
        designs = list(SPACE.points(Strategy.RENEWABLES_ONLY))
        block = evaluate_block(ut_context, designs, Strategy.RENEWABLES_ONLY)
        assert counters.counter_value("designs_batched") == 0
        assert block == per_design(ut_context, designs, Strategy.RENEWABLES_ONLY)


class TestPerDesignRoute:
    """A floor above every block keeps the per-design route end to end."""

    @pytest.mark.parametrize(
        "strategy",
        [
            Strategy.RENEWABLES_BATTERY,
            Strategy.RENEWABLES_CAS,
            Strategy.RENEWABLES_BATTERY_CAS,
        ],
    )
    def test_huge_floor_runs_every_chunk_per_design(
        self, ut_context, counters, monkeypatch, strategy
    ):
        monkeypatch.setenv("REPRO_BATCH_MIN_ROWS", "1000000")
        result = optimize(ut_context, SPACE, strategy, batch_size=512)
        assert counters.counter_value("designs_batched") == 0
        assert list(result.evaluations) == per_design(
            ut_context, list(SPACE.points(strategy)), strategy
        )


def test_engine_has_no_routing_flag_and_keeps_the_patched_names(ut_context):
    """``batch_size`` only sizes chunks; the evaluator names stay on the
    engine module, where the perfbench layer timer patches them."""
    engine = SweepEngine(
        [("UT", ut_context, SPACE)], Strategy.RENEWABLES_CAS, batch_size=512
    )
    assert not hasattr(engine, "batched")
    assert engine_module.evaluate_block is evaluate_block
    assert engine_module.evaluate_design is evaluate_design
