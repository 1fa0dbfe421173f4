"""The process-parallel optimizer and the sweep caches.

The contract under test: a parallel sweep is an *implementation detail* —
``workers=N`` must produce the identical ``DesignEvaluation`` sequence (not
just close, identical) as the serial sweep, and the supply-projection /
site-context caches must never change what an evaluation returns.
"""

from __future__ import annotations

import io
import pickle
import re

import pytest

from repro.carbon import EmbodiedCarbonModel
from repro.cli import main
from repro.core import Strategy, build_site_context, optimize, optimize_all_strategies
from repro.core.design import DesignSpace
from repro.core.evaluate import SupplyProjectionCache, evaluate_design
from repro.obs import ProgressTicker, SweepEvents


@pytest.fixture(scope="module")
def small_space() -> DesignSpace:
    return DesignSpace(
        solar_mw=(0.0, 30.0),
        wind_mw=(0.0, 30.0),
        battery_mwh=(0.0, 50.0),
        extra_capacity_fractions=(0.0,),
    )


class TestParallelSweep:
    def test_rejects_non_positive_workers(self, ut_context, small_space):
        with pytest.raises(ValueError, match="workers"):
            optimize(ut_context, small_space, Strategy.RENEWABLES_ONLY, workers=0)

    @pytest.mark.parametrize(
        "strategy", [Strategy.RENEWABLES_BATTERY, Strategy.RENEWABLES_BATTERY_CAS]
    )
    def test_parallel_equals_serial_exactly(self, ut_context, small_space, strategy):
        serial = optimize(ut_context, small_space, strategy)
        parallel = optimize(ut_context, small_space, strategy, workers=2)
        # Tuple equality over frozen dataclasses compares every field of
        # every evaluation with ==, i.e. bitwise for the float fields.
        assert serial.evaluations == parallel.evaluations
        assert serial.best == parallel.best

    def test_parallel_progress_is_cumulative_and_complete(
        self, ut_context, small_space
    ):
        stream = io.StringIO()
        bus = SweepEvents()
        bus.subscribe(ProgressTicker(stream=stream, force=True, min_interval_s=0.0))
        optimize(
            ut_context,
            small_space,
            Strategy.RENEWABLES_BATTERY,
            events=bus,
            workers=2,
        )
        total = small_space.size(Strategy.RENEWABLES_BATTERY)
        paints = re.findall(r"([^\r]+): (\d+)/(\d+)", stream.getvalue())
        dones = [int(done) for _, done, _ in paints]
        live_chunks = bus.counts()["chunk_completed"]
        assert len(paints) == live_chunks  # one paint per committed chunk
        assert dones == sorted(dones)
        assert dones[-1] == total
        assert all(int(t) == total for _, _, t in paints)
        assert all(label == Strategy.RENEWABLES_BATTERY.value for label, _, _ in paints)

    def test_optimize_all_strategies_forwards_workers(self, ut_context, small_space):
        serial = optimize_all_strategies(ut_context, small_space)
        parallel = optimize_all_strategies(ut_context, small_space, workers=2)
        for strategy in Strategy:
            assert serial[strategy].evaluations == parallel[strategy].evaluations


class TestSupplyProjectionCache:
    def test_repeat_projection_returns_cached_objects(self, ut_context):
        cache = ut_context.supply_cache
        first = cache.project(25.0, 10.0)
        second = cache.project(25.0, 10.0)
        assert all(a is b for a, b in zip(first, second))

    def test_axis_traces_are_shared_across_pairs(self, ut_context):
        cache = ut_context.supply_cache
        solar_a, _, _ = cache.project(25.0, 0.0)
        solar_b, _, _ = cache.project(25.0, 40.0)
        assert solar_a is solar_b

    def test_cached_supply_is_exact(self, ut_context):
        from repro.grid import scale_trace_to_capacity

        _, _, supply = ut_context.supply_cache.project(25.0, 10.0)
        expected = (
            scale_trace_to_capacity(ut_context.grid.solar, 25.0)
            + scale_trace_to_capacity(ut_context.grid.wind, 10.0)
        )
        assert (supply.values == expected.values).all()

    def test_lru_evicts_oldest_combined_entry(self, ut_context):
        cache = SupplyProjectionCache(ut_context.grid.solar, ut_context.grid.wind)
        limit = SupplyProjectionCache._MAX_COMBINED_ENTRIES
        for i in range(limit + 1):
            cache.project(float(i), 0.0)
        assert len(cache._combined) == limit
        assert (0.0, 0.0) not in cache._combined

    def test_context_pickles_without_cache(self, ut_context):
        ut_context.supply_cache.project(25.0, 10.0)
        clone = pickle.loads(pickle.dumps(ut_context))
        assert "_supply_cache" not in clone.__dict__
        # The clone lazily builds its own, and projections still agree.
        _, _, original = ut_context.supply_cache.project(25.0, 10.0)
        _, _, rebuilt = clone.supply_cache.project(25.0, 10.0)
        assert (original.values == rebuilt.values).all()

    def test_cache_does_not_change_evaluations(self, ut_context, small_space):
        design = next(small_space.points(Strategy.RENEWABLES_BATTERY))
        first = evaluate_design(ut_context, design, Strategy.RENEWABLES_BATTERY)
        again = evaluate_design(ut_context, design, Strategy.RENEWABLES_BATTERY)
        assert first == again


class TestSiteContextCache:
    def test_same_arguments_return_same_context(self):
        assert build_site_context("UT") is build_site_context("UT")

    def test_different_arguments_miss(self):
        assert build_site_context("UT") is not build_site_context("UT", seed=1)

    def test_unhashable_arguments_skip_the_cache(self):
        class UnhashableModel(EmbodiedCarbonModel):
            __hash__ = None

        embodied = UnhashableModel()
        first = build_site_context("UT", embodied=embodied)
        second = build_site_context("UT", embodied=embodied)
        assert first is not second
        assert first.demand.power.values.shape == second.demand.power.values.shape


class TestCliWorkers:
    def test_optimize_accepts_workers(self, capsys):
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
                "--workers",
                "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Carbon-optimal designs, UT" in out

    def test_invalid_workers_is_a_domain_error(self, capsys):
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
                "--workers",
                "0",
            ]
        )
        assert code == 1
        assert "workers" in capsys.readouterr().err
