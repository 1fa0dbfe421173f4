"""Tests for coarse-to-fine optimizer refinement."""

import pytest

from repro.core import DesignSpace, Strategy, build_site_context, optimize
from repro.core.refine import refine_optimize


@pytest.fixture(scope="module")
def context():
    return build_site_context("UT")


@pytest.fixture(scope="module")
def coarse_space(context):
    avg = context.demand.avg_power_mw
    return DesignSpace(
        solar_mw=(0.0, 4 * avg, 8 * avg),
        wind_mw=(0.0, 4 * avg, 8 * avg),
        battery_mwh=(0.0, 5 * avg, 10 * avg),
    )


class TestRefinement:
    def test_never_worse_than_coarse(self, context, coarse_space):
        coarse = optimize(context, coarse_space, Strategy.RENEWABLES_BATTERY)
        refined = refine_optimize(
            context, coarse_space, Strategy.RENEWABLES_BATTERY, n_rounds=2
        )
        assert refined.best.total_tons <= coarse.best.total_tons + 1e-9

    def test_refinement_actually_improves_here(self, context, coarse_space):
        """On this coarse grid the optimum sits between grid points, so
        zooming must find a strictly better design."""
        coarse = optimize(context, coarse_space, Strategy.RENEWABLES_BATTERY)
        refined = refine_optimize(
            context, coarse_space, Strategy.RENEWABLES_BATTERY, n_rounds=2
        )
        assert refined.best.total_tons < coarse.best.total_tons

    def test_round_count(self, context, coarse_space):
        refined = refine_optimize(
            context, coarse_space, Strategy.RENEWABLES_ONLY, n_rounds=3
        )
        assert len(refined.rounds) == 4  # coarse + 3 zooms

    def test_zero_rounds_equals_exhaustive(self, context, coarse_space):
        refined = refine_optimize(
            context, coarse_space, Strategy.RENEWABLES_ONLY, n_rounds=0
        )
        coarse = optimize(context, coarse_space, Strategy.RENEWABLES_ONLY)
        assert refined.best.total_tons == coarse.best.total_tons
        assert refined.total_evaluations == coarse.n_evaluated

    def test_collapsed_axes_stay_collapsed(self, context):
        """A wind-only axis of {0} must not be expanded by the zoom."""
        avg = context.demand.avg_power_mw
        space = DesignSpace(
            solar_mw=(0.0, 4 * avg, 8 * avg),
            wind_mw=(0.0,),
            battery_mwh=(0.0, 5 * avg),
        )
        refined = refine_optimize(
            context, space, Strategy.RENEWABLES_BATTERY, n_rounds=1
        )
        for evaluation in refined.rounds[-1].evaluations:
            assert evaluation.design.investment.wind_mw == 0.0

    def test_batched_refinement_is_identical(
        self, context, coarse_space, monkeypatch
    ):
        """Every zoom round answers the same through the per-design and the
        batched evaluation route."""
        # The reference runs per design: no block reaches this floor.
        monkeypatch.setenv("REPRO_BATCH_MIN_ROWS", "1000000")
        plain = refine_optimize(
            context, coarse_space, Strategy.RENEWABLES_BATTERY, n_rounds=1
        )
        monkeypatch.setenv("REPRO_BATCH_MIN_ROWS", "1")
        batched = refine_optimize(
            context, coarse_space, Strategy.RENEWABLES_BATTERY, n_rounds=1
        )
        assert plain.best == batched.best
        assert plain.total_evaluations == batched.total_evaluations
        for a, b in zip(plain.rounds, batched.rounds):
            assert a.evaluations == b.evaluations

    def test_validation(self, context, coarse_space):
        with pytest.raises(ValueError):
            refine_optimize(context, coarse_space, Strategy.RENEWABLES_ONLY, n_rounds=-1)
        with pytest.raises(ValueError):
            refine_optimize(
                context, coarse_space, Strategy.RENEWABLES_ONLY, points_per_axis=1
            )
