"""Tests for the end-to-end design evaluation engine."""

from collections import OrderedDict

import pytest

from repro.core import DesignPoint, Strategy, build_site_context, evaluate_design
from repro.core import evaluate as evaluate_module
from repro.grid import RenewableInvestment


@pytest.fixture(scope="module")
def context():
    return build_site_context("UT")


@pytest.fixture(scope="module")
def mid_design(context):
    avg = context.demand.avg_power_mw
    return DesignPoint(
        investment=RenewableInvestment(solar_mw=4 * avg, wind_mw=4 * avg),
        battery_mwh=5 * avg,
        extra_capacity_fraction=0.25,
        flexible_ratio=0.4,
    )


class TestSiteContext:
    def test_deterministic(self):
        a = build_site_context("UT")
        b = build_site_context("UT")
        assert a.demand.power == b.demand.power
        assert a.grid is b.grid  # cached dataset

    def test_resource_support_flags(self, context):
        assert context.supports_solar
        assert context.supports_wind
        duk = build_site_context("NC")
        assert duk.supports_solar
        assert not duk.supports_wind


class TestStrategyOrdering:
    def test_battery_improves_on_renewables_only(self, context, mid_design):
        plain = evaluate_design(context, mid_design, Strategy.RENEWABLES_ONLY)
        battery = evaluate_design(context, mid_design, Strategy.RENEWABLES_BATTERY)
        assert battery.coverage >= plain.coverage
        assert battery.operational_tons <= plain.operational_tons

    def test_cas_improves_on_renewables_only(self, context, mid_design):
        plain = evaluate_design(context, mid_design, Strategy.RENEWABLES_ONLY)
        cas = evaluate_design(context, mid_design, Strategy.RENEWABLES_CAS)
        assert cas.coverage >= plain.coverage

    def test_all_beats_components_on_coverage(self, context, mid_design):
        battery = evaluate_design(context, mid_design, Strategy.RENEWABLES_BATTERY)
        cas = evaluate_design(context, mid_design, Strategy.RENEWABLES_CAS)
        combined = evaluate_design(context, mid_design, Strategy.RENEWABLES_BATTERY_CAS)
        assert combined.coverage >= max(battery.coverage, cas.coverage) - 1e-6


class TestAccounting:
    def test_constraint_zeroing(self, context, mid_design):
        plain = evaluate_design(context, mid_design, Strategy.RENEWABLES_ONLY)
        assert plain.design.battery_mwh == 0.0
        assert plain.battery_embodied_tons == 0.0
        assert plain.servers_embodied_tons == 0.0
        assert plain.moved_mwh == 0.0

    def test_embodied_components_sum(self, context, mid_design):
        combined = evaluate_design(context, mid_design, Strategy.RENEWABLES_BATTERY_CAS)
        assert combined.embodied_tons == pytest.approx(
            combined.renewables_embodied_tons
            + combined.battery_embodied_tons
            + combined.servers_embodied_tons
        )
        assert combined.total_tons == pytest.approx(
            combined.operational_tons + combined.embodied_tons
        )

    def test_battery_strategy_reports_cycles(self, context, mid_design):
        battery = evaluate_design(context, mid_design, Strategy.RENEWABLES_BATTERY)
        assert battery.battery_cycles_per_day > 0.0

    def test_cas_strategy_charges_servers(self, context, mid_design):
        cas = evaluate_design(context, mid_design, Strategy.RENEWABLES_CAS)
        assert cas.servers_embodied_tons > 0.0

    def test_zero_investment_all_operational(self, context):
        design = DesignPoint(investment=RenewableInvestment())
        result = evaluate_design(context, design, Strategy.RENEWABLES_ONLY)
        assert result.coverage == 0.0
        assert result.renewables_embodied_tons == 0.0
        assert result.operational_tons > 0.0

    def test_massive_investment_near_full_coverage(self, context):
        avg = context.demand.avg_power_mw
        design = DesignPoint(
            investment=RenewableInvestment(solar_mw=40 * avg, wind_mw=40 * avg),
            battery_mwh=30 * avg,
        )
        result = evaluate_design(context, design, Strategy.RENEWABLES_BATTERY)
        assert result.coverage > 0.99

    def test_tons_per_mw(self, context, mid_design):
        result = evaluate_design(context, mid_design, Strategy.RENEWABLES_ONLY)
        assert result.tons_per_mw(19.0) == pytest.approx(result.total_tons / 19.0)
        with pytest.raises(ValueError):
            result.tons_per_mw(0.0)


class TestContextCacheBound:
    @pytest.fixture()
    def fresh_metrics(self):
        from repro.obs import (
            disable_metrics,
            enable_metrics,
            get_registry,
            reset_metrics,
        )

        reset_metrics()
        enable_metrics()
        yield get_registry()
        disable_metrics()
        reset_metrics()

    def test_inserting_past_limit_evicts_oldest(self, fresh_metrics, monkeypatch):
        monkeypatch.setattr(evaluate_module, "_context_cache", OrderedDict())
        limit = evaluate_module._MAX_CONTEXT_ENTRIES
        assert limit == 16
        first = build_site_context("UT", seed=1000)
        for seed in range(1001, 1000 + limit):
            build_site_context("UT", seed=seed)
        assert len(evaluate_module._context_cache) == limit
        assert fresh_metrics.counter_value("site_context_cache_evictions") == 0
        build_site_context("UT", seed=1000 + limit)
        assert len(evaluate_module._context_cache) == limit
        assert fresh_metrics.counter_value("site_context_cache_evictions") == 1
        # The evicted (oldest) seed rebuilds from scratch — a fresh object.
        rebuilt = build_site_context("UT", seed=1000)
        assert rebuilt is not first
        assert rebuilt.demand.power == first.demand.power

    def test_hit_refreshes_recency(self, fresh_metrics, monkeypatch):
        """Eviction is least-recently-used, not first-in: a hit on the
        oldest entry makes the second-oldest the next one out."""
        monkeypatch.setattr(evaluate_module, "_context_cache", OrderedDict())
        limit = evaluate_module._MAX_CONTEXT_ENTRIES
        contexts = [build_site_context("UT", seed=2000 + i) for i in range(limit)]
        assert build_site_context("UT", seed=2000) is contexts[0]
        assert fresh_metrics.counter_value("site_context_cache_hits") == 1
        build_site_context("UT", seed=2000 + limit)
        assert fresh_metrics.counter_value("site_context_cache_evictions") == 1
        assert build_site_context("UT", seed=2000) is contexts[0]
        assert build_site_context("UT", seed=2001) is not contexts[1]


class TestBatterySeedCacheBound:
    def test_grid_order_sweep_keeps_at_most_the_bound(self, monkeypatch):
        """A battery sweep walks investments in its outer loop, so the
        small seed LRU still builds each investment's seed once, and no
        more than ``_MAX_ENTRIES`` seeds stay alive afterwards."""
        from repro.core import optimize
        from repro.core.design import DesignSpace
        from repro.obs import disable_metrics, enable_metrics, get_registry, reset_metrics

        monkeypatch.delenv("REPRO_BATCH_MIN_ROWS", raising=False)
        context = build_site_context("UT", seed=3100)
        avg = context.demand.avg_power_mw
        space = DesignSpace(
            solar_mw=(0.0, 2 * avg, 4 * avg),
            wind_mw=(avg, 3 * avg),
            battery_mwh=(0.0, avg, 4 * avg),
        )
        reset_metrics()
        enable_metrics()
        try:
            optimize(context, space, Strategy.RENEWABLES_BATTERY)
            registry = get_registry()
            hits = registry.counter_value("battery_seed_cache_hits")
            misses = registry.counter_value("battery_seed_cache_misses")
        finally:
            disable_metrics()
            reset_metrics()
        investments = len(space.solar_mw) * len(space.wind_mw)
        assert misses == investments
        assert hits == space.size(Strategy.RENEWABLES_BATTERY) - investments
        seeds = context.battery_seed_cache._seeds
        assert 0 < len(seeds) <= evaluate_module.BatterySeedCache._MAX_ENTRIES
        assert evaluate_module.BatterySeedCache._MAX_ENTRIES <= 2
