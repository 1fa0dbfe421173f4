"""The default per-strategy routing table of :func:`evaluate_block`.

Under the default floors (no ``REPRO_BATCH_MIN_ROWS``, no ``min_rows``)
battery blocks never batch: every row runs the seeded serial kernel.
Combined blocks batch from 160 rows.  Whichever way a block is routed,
its evaluations must equal the per-design loop bit for bit; the counters
prove which path ran.
"""

from __future__ import annotations

import pytest

from repro.core.design import DesignSpace, Strategy
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

    def test_min_rows_still_forces_the_batched_kernel(self, ut_context, counters):
        designs = list(SPACE.points(Strategy.RENEWABLES_BATTERY))[:10]
        block = evaluate_block(
            ut_context, designs, Strategy.RENEWABLES_BATTERY, min_rows=1
        )
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
