"""The default per-strategy routing table of :func:`evaluate_block_sites`.

Under the default floors (no ``REPRO_BATCH_MIN_ROWS``) battery blocks
never batch: every row runs the seeded serial kernel.
Combined blocks batch from 160 rows.  When ``REPRO_BATCH_MIN_ROWS`` sets
a battery floor, battery blocks take the combined blocks' lockstep
route: one kernel call per hour count across sites, and merged serial
rounds.  Whichever way a block is routed, its evaluations must equal the
per-design loop bit for bit; the counters prove which path ran.
"""

from __future__ import annotations

import pytest

from repro.core import SweepEngine, optimize
from repro.core import engine as engine_module
from repro.core import evaluate as evaluate_module
from repro.core.design import DesignSpace, Strategy
from repro.core.engine import sweep_chunk_size
from repro.core.evaluate import (
    build_site_context,
    evaluate_block,
    evaluate_block_sites,
    evaluate_design,
)
from repro.obs import (
    SweepEvents,
    disable_metrics,
    disable_tracing,
    enable_metrics,
    enable_tracing,
    get_registry,
    reset_metrics,
    reset_tracing,
    trace_roots,
)

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


@pytest.fixture()
def battery_kernel_calls(monkeypatch):
    """Record ``(demand shape, supply shape, row_sites)`` per battery call."""
    calls = []
    kernel = evaluate_module.battery_run_batch

    def spy(demand, supply, **kwargs):
        row_sites = kwargs.get("row_sites")
        if row_sites is not None:
            row_sites = row_sites.tolist()
        calls.append((demand.shape, supply.shape, row_sites))
        return kernel(demand, supply, **kwargs)

    monkeypatch.setattr(evaluate_module, "battery_run_batch", spy)
    return calls


class TestForcedBatteryMerge:
    """Under a forced floor, battery blocks share one lockstep call per
    hour count, exactly as combined blocks do."""

    #: Ten rows spread over the grid: every battery size, zero included.
    DESIGNS = list(SPACE.points(Strategy.RENEWABLES_BATTERY))[::8]

    def test_two_sites_make_one_site_indexed_call(
        self, ut_context, or_context, counters, battery_kernel_calls, monkeypatch
    ):
        monkeypatch.setenv("REPRO_BATCH_MIN_ROWS", "1")
        blocks = [(ut_context, self.DESIGNS), (or_context, self.DESIGNS[:4])]
        merged = evaluate_block_sites(blocks, Strategy.RENEWABLES_BATTERY)
        n_hours = ut_context.demand.power.calendar.n_hours
        assert battery_kernel_calls == [
            ((2, n_hours), (14, n_hours), [0] * 10 + [1] * 4)
        ]
        assert counters.counter_value("designs_batched") == 14
        assert counters.counter_value("battery_runs_seeded") == 0
        for (context, designs), evaluations in zip(blocks, merged):
            assert evaluations == per_design(
                context, designs, Strategy.RENEWABLES_BATTERY
            )

    def test_one_site_passes_its_1d_demand(
        self, ut_context, counters, battery_kernel_calls, monkeypatch
    ):
        monkeypatch.setenv("REPRO_BATCH_MIN_ROWS", "1")
        (block,) = evaluate_block_sites(
            [(ut_context, self.DESIGNS)], Strategy.RENEWABLES_BATTERY
        )
        n_hours = ut_context.demand.power.calendar.n_hours
        assert battery_kernel_calls == [((n_hours,), (10, n_hours), None)]
        assert block == per_design(
            ut_context, self.DESIGNS, Strategy.RENEWABLES_BATTERY
        )

    def test_mixed_years_split_by_hour_count(
        self, ut_context, or_context, counters, battery_kernel_calls, monkeypatch
    ):
        monkeypatch.setenv("REPRO_BATCH_MIN_ROWS", "1")
        ut_2021 = build_site_context("UT", year=2021)
        blocks = [
            (ut_context, self.DESIGNS[:3]),
            (ut_2021, self.DESIGNS[:5]),
            (or_context, self.DESIGNS[:2]),
        ]
        merged = evaluate_block_sites(blocks, Strategy.RENEWABLES_BATTERY)
        assert battery_kernel_calls == [
            ((2, 8784), (5, 8784), [0, 0, 0, 1, 1]),
            ((8760,), (5, 8760), None),
        ]
        assert counters.counter_value("designs_batched") == 10
        for (context, designs), evaluations in zip(blocks, merged):
            assert evaluations == per_design(
                context, designs, Strategy.RENEWABLES_BATTERY
            )


class TestSerialBatteryRounds:
    """Two sites x two 40-row chunks: two serial rounds of two chunks."""

    @pytest.fixture()
    def traced(self):
        reset_tracing()
        enable_tracing()
        yield
        disable_tracing()
        reset_tracing()

    @staticmethod
    def run_rounds(ut_context, or_context, monkeypatch):
        """Dispatch serially; return the evaluate/commit log and span names."""
        assert sweep_chunk_size(80, 40) == 40
        log = []

        def spy(name, evaluator):
            def traced_call(*args, **kwargs):
                log.append(name)
                return evaluator(*args, **kwargs)

            return traced_call

        for name in ("evaluate_block", "evaluate_block_sites"):
            monkeypatch.setattr(
                engine_module, name, spy(name, getattr(engine_module, name))
            )
        def on_event(event):
            if event.kind == "chunk_completed":
                log.append("commit")

        bus = SweepEvents()
        bus.subscribe(on_event)
        engine = SweepEngine(
            [("UT", ut_context, SPACE), ("OR", or_context, SPACE)],
            Strategy.RENEWABLES_BATTERY,
            batch_size=40,
            events=bus,
        )
        try:
            engine.setup()
            engine.dispatch()
        finally:
            engine.cleanup()
        names = []
        stack = list(trace_roots())
        while stack:
            node = stack.pop()
            names.append(node.name)
            stack.extend(node.children)
        for state in engine.states:
            assert state.results == per_design(
                state.context, state.designs, Strategy.RENEWABLES_BATTERY
            )
        return log, names

    def test_no_floor_commits_one_chunk_at_a_time(
        self, ut_context, or_context, counters, traced, monkeypatch
    ):
        log, names = self.run_rounds(ut_context, or_context, monkeypatch)
        assert log == ["evaluate_block", "commit"] * 4
        assert names.count("evaluate_chunk") == 4
        assert "evaluate_round" not in names
        assert counters.counter_value("designs_batched") == 0

    def test_forced_floor_merges_each_round(
        self, ut_context, or_context, counters, traced, monkeypatch
    ):
        monkeypatch.setenv("REPRO_BATCH_MIN_ROWS", "1")
        log, names = self.run_rounds(ut_context, or_context, monkeypatch)
        assert log == ["evaluate_block_sites", "commit", "commit"] * 2
        assert names.count("evaluate_round") == 2
        assert "evaluate_chunk" not in names
        assert counters.counter_value("designs_batched") == 160


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
