"""Tests for the exhaustive carbon optimizer."""

import pytest

from repro.timeseries.stats import is_exact_zero

from repro.core import (
    DesignSpace,
    Strategy,
    build_site_context,
    optimize,
    optimize_all_strategies,
)


@pytest.fixture(scope="module")
def context():
    return build_site_context("UT")


@pytest.fixture(scope="module")
def small_space(context):
    avg = context.demand.avg_power_mw
    return DesignSpace(
        solar_mw=(0.0, 4 * avg, 8 * avg),
        wind_mw=(0.0, 4 * avg, 8 * avg),
        battery_mwh=(0.0, 5 * avg),
        extra_capacity_fractions=(0.0, 0.5),
    )


class TestOptimize:
    def test_best_is_minimum(self, context, small_space):
        result = optimize(context, small_space, Strategy.RENEWABLES_BATTERY)
        totals = [e.total_tons for e in result.evaluations]
        assert result.best.total_tons == min(totals)

    def test_evaluates_whole_grid(self, context, small_space):
        result = optimize(context, small_space, Strategy.RENEWABLES_BATTERY)
        assert result.n_evaluated == small_space.size(Strategy.RENEWABLES_BATTERY)

    def test_best_beats_doing_nothing(self, context, small_space):
        """The carbon-optimal design must beat the zero-investment design
        (which pays full grid-intensity operational carbon)."""
        result = optimize(context, small_space, Strategy.RENEWABLES_ONLY)
        do_nothing = next(
            e for e in result.evaluations if is_exact_zero(e.design.investment.total_mw)
        )
        assert result.best.total_tons <= do_nothing.total_tons

    def test_strategies_improve_total(self, context, small_space):
        """Richer strategies can only match or improve the optimum (their
        design spaces are supersets)."""
        renewables = optimize(context, small_space, Strategy.RENEWABLES_ONLY)
        battery = optimize(context, small_space, Strategy.RENEWABLES_BATTERY)
        combined = optimize(context, small_space, Strategy.RENEWABLES_BATTERY_CAS)
        assert battery.best.total_tons <= renewables.best.total_tons + 1e-9
        assert combined.best.total_tons <= battery.best.total_tons + 1e-6

    def test_best_coverage_accessor(self, context, small_space):
        result = optimize(context, small_space, Strategy.RENEWABLES_BATTERY)
        assert result.best_coverage() == result.best.coverage


class TestOptimizeValidation:
    """The retry and stall-budget arguments are checked at the entry point."""

    def test_negative_max_retries_rejected(self, context, small_space):
        with pytest.raises(ValueError, match="max_retries"):
            optimize(context, small_space, Strategy.RENEWABLES_ONLY, max_retries=-1)

    def test_zero_retries_allowed(self, context, small_space):
        serial = optimize(context, small_space, Strategy.RENEWABLES_ONLY)
        pooled = optimize(
            context, small_space, Strategy.RENEWABLES_ONLY, workers=2, max_retries=0
        )
        assert pooled.evaluations == serial.evaluations

    @pytest.mark.parametrize("timeout", [0.0, -1.0])
    def test_non_positive_timeout_rejected(self, context, small_space, timeout):
        with pytest.raises(ValueError, match="chunk_timeout"):
            optimize(
                context, small_space, Strategy.RENEWABLES_ONLY, chunk_timeout=timeout
            )


class TestOptimizeAllStrategies:
    def test_returns_all_four(self, context, small_space):
        results = optimize_all_strategies(context, small_space)
        assert set(results) == set(Strategy)

    def test_default_space_is_built(self, context):
        """Without an explicit space a sensible default is used (small
        smoke check on a trimmed custom grid for speed is done above)."""
        results = optimize_all_strategies(
            context,
            DesignSpace(
                solar_mw=(0.0, 80.0),
                wind_mw=(0.0, 80.0),
                battery_mwh=(0.0, 100.0),
                extra_capacity_fractions=(0.0,),
            ),
        )
        for strategy, result in results.items():
            assert result.strategy is strategy
            assert 0.0 <= result.best.coverage <= 1.0
