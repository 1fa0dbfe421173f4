"""Integration tests: the paper's §1 key findings must hold end-to-end.

These tests run the whole pipeline (synthetic grid -> demand -> strategies ->
carbon accounting) and check the *shape* conclusions of the paper, not its
absolute numbers (our grid is synthetic; see DESIGN.md).
"""

import pytest

from repro import SITE_ORDER, CarbonExplorer, Strategy, sweep_fleet
from repro.battery import BatterySpec
from repro.grid import RenewableClass, RenewableInvestment

pytestmark = pytest.mark.integration


@pytest.fixture(scope="module")
def ut():
    return CarbonExplorer("UT")


@pytest.fixture(scope="module")
def nc():
    return CarbonExplorer("NC")


@pytest.fixture(scope="module")
def oregon():
    return CarbonExplorer("OR")


class TestRenewablesOnlyFinding:
    """'Relying on renewable energy for coverage produces diminishing
    returns ... Datacenters require ~5x more renewables to increase coverage
    from 95% to 99.9% than from 0% to 95%.'"""

    def _investment_for_coverage(self, explorer, target, lo=0.0, hi=600.0):
        """Bisect total investment (50/50 solar+wind) for a coverage level."""
        def coverage(total):
            inv = RenewableInvestment(solar_mw=total / 2, wind_mw=total / 2)
            return explorer.coverage(inv)

        if coverage(hi) < target:
            return float("inf")
        for _ in range(40):
            mid = (lo + hi) / 2
            if coverage(mid) < target:
                lo = mid
            else:
                hi = mid
        return hi

    def test_long_tail_multiplier(self, ut):
        to_95 = self._investment_for_coverage(ut, 0.95, hi=3000.0)
        to_999 = self._investment_for_coverage(ut, 0.999, hi=60000.0)
        assert to_999 > 3.0 * to_95  # the paper's ">5x" on its data

    def test_diminishing_returns_curve(self, ut):
        """Marginal coverage per MW decreases along the investment axis."""
        totals = [50.0, 200.0, 800.0]
        coverages = [
            ut.coverage(RenewableInvestment(solar_mw=t / 2, wind_mw=t / 2))
            for t in totals
        ]
        slope1 = (coverages[1] - coverages[0]) / (totals[1] - totals[0])
        slope2 = (coverages[2] - coverages[1]) / (totals[2] - totals[1])
        assert slope2 < slope1

    def test_solar_only_region_capped_near_half(self, nc):
        """'For regions that rely entirely on solar ... it is impossible to
        increase 24/7 coverage much beyond 50%.'"""
        huge = RenewableInvestment(solar_mw=50_000.0)
        assert nc.coverage(huge) < 0.62


class TestBatteryFinding:
    """'Batteries permit datacenters to reach 100% coverage ... Batteries
    must be large enough for a few hours of computation.'"""

    def test_hybrid_region_needs_fewer_battery_hours_than_solar_only(self, ut, nc):
        ut_inv = RenewableInvestment(
            solar_mw=8 * ut.avg_power_mw, wind_mw=8 * ut.avg_power_mw
        )
        nc_inv = RenewableInvestment(solar_mw=16 * nc.avg_power_mw)
        ut_hours = ut.battery_hours_for_full_coverage(ut_inv)
        nc_hours = nc.battery_hours_for_full_coverage(nc_inv, max_hours_of_load=96.0)
        assert ut_hours < nc_hours

    def test_battery_reaches_full_coverage(self, ut):
        inv = RenewableInvestment(
            solar_mw=8 * ut.avg_power_mw, wind_mw=8 * ut.avg_power_mw
        )
        hours = ut.battery_hours_for_full_coverage(inv)
        assert hours < 48.0  # finite, i.e. 100% is reachable
        result = ut.simulate_battery(inv, BatterySpec(hours * ut.avg_power_mw * 1.01))
        assert result.grid_import.total() < 0.001 * ut.demand_power.total()


class TestSchedulingFinding:
    """'Demand response increases coverage by 1%-22% depending on region.'"""

    def test_cas_adds_coverage(self, ut):
        inv = ut.existing_investment()
        before = ut.coverage(inv)
        result = ut.schedule(
            inv, capacity_mw=ut.demand_power.max() * 2.0, flexible_ratio=0.4
        )
        supply = ut.renewable_supply(inv)
        after = 1.0 - (
            (result.shifted_demand - supply).positive_part().total()
            / ut.demand_power.total()
        )
        gain = after - before
        assert 0.005 < gain < 0.30

    def test_cas_needs_extra_servers(self, ut):
        inv = ut.existing_investment()
        result = ut.schedule(
            inv, capacity_mw=ut.demand_power.max() * 2.0, flexible_ratio=1.0
        )
        assert result.additional_capacity_fraction() > 0.05


class TestHolisticFinding:
    """'All Together ... makes 100% coverage optimal for five regions and
    above 99% for rest of the regions except OR' — shape version: the
    combined strategy's optimum dominates, and batteries cut total carbon
    dramatically versus renewables alone."""

    @pytest.fixture(scope="class")
    def results(self, ut):
        space = ut.default_space(
            n_renewable_steps=4,
            battery_hours=(0.0, 2.0, 5.0, 10.0),
            extra_capacity_fractions=(0.0, 0.5),
        )
        return ut.optimize_all(space)

    def test_combined_strategy_is_carbon_optimal(self, results):
        totals = {s: r.best.total_tons for s, r in results.items()}
        assert totals[Strategy.RENEWABLES_BATTERY_CAS] <= min(totals.values()) + 1e-6

    def test_batteries_cut_total_carbon(self, results):
        """Fig. 15: adding batteries reduces the optimal total footprint."""
        renewables = results[Strategy.RENEWABLES_ONLY].best.total_tons
        battery = results[Strategy.RENEWABLES_BATTERY].best.total_tons
        assert battery < 0.85 * renewables

    def test_battery_reduction_most_pronounced_in_solar_only_region(self, nc):
        """Fig. 15 / §5.2: 'The reduction is most pronounced in regions that
        rely only on solar energy' — NC's battery optimum should roughly
        halve the renewables-only footprint."""
        space = nc.default_space(
            n_renewable_steps=4,
            battery_hours=(0.0, 5.0, 10.0, 16.0),
            extra_capacity_fractions=(0.0,),
        )
        renewables = nc.optimize(Strategy.RENEWABLES_ONLY, space).best.total_tons
        battery = nc.optimize(Strategy.RENEWABLES_BATTERY, space).best.total_tons
        assert battery < 0.60 * renewables

    def test_combined_achieves_high_coverage(self, results):
        assert results[Strategy.RENEWABLES_BATTERY_CAS].best.coverage > 0.95

    def test_oregon_harder_than_utah(self, oregon, ut):
        """Site selection: wind-only volatile Oregon needs more battery
        hours than hybrid Utah at comparable relative investment."""
        ut_inv = RenewableInvestment(
            solar_mw=6 * ut.avg_power_mw, wind_mw=6 * ut.avg_power_mw
        )
        or_inv = RenewableInvestment(wind_mw=12 * oregon.avg_power_mw)
        ut_hours = ut.battery_hours_for_full_coverage(ut_inv, max_hours_of_load=200.0)
        or_hours = oregon.battery_hours_for_full_coverage(
            or_inv, max_hours_of_load=200.0
        )
        assert or_hours > ut_hours


class TestParetoShape:
    def test_frontier_has_a_long_tail(self, ut):
        """Fig. 14: reaching the lowest operational carbon costs far more
        embodied carbon than the knee."""
        space = ut.default_space(
            n_renewable_steps=5,
            battery_hours=(0.0, 2.0, 5.0, 10.0, 16.0),
            extra_capacity_fractions=(0.0,),
        )
        frontier = ut.pareto(Strategy.RENEWABLES_BATTERY, space)
        assert len(frontier) >= 3
        from repro.core import frontier_tail_ratio

        assert frontier_tail_ratio(frontier) > 1.5

    def test_zero_operational_points_include_batteries(self, ut):
        """Fig. 14: 'any solution for 24/7 ... must include batteries'."""
        space = ut.default_space(
            n_renewable_steps=4,
            battery_hours=(0.0, 5.0, 16.0),
            extra_capacity_fractions=(0.0,),
        )
        evaluations = ut.optimize(Strategy.RENEWABLES_BATTERY, space).evaluations
        full = [e for e in evaluations if e.coverage > 0.9999]
        assert full, "some design must reach 24/7"
        assert all(e.design.battery_mwh > 0.0 for e in full)


@pytest.fixture(scope="module")
def fig15():
    """Fig. 15's grid at all 13 sites: ``{site: {strategy: best evaluation}}``.

    The same sweep as ``benchmarks/bench_fig15.py``, whose table is a
    golden: every strategy through ``sweep_fleet(batch_size=512)``.
    """
    explorers = [CarbonExplorer(state) for state in SITE_ORDER]
    sites = [
        (
            explorer.context.site_state,
            explorer.context,
            explorer.default_space(
                n_renewable_steps=4,
                battery_hours=(0.0, 2.0, 5.0, 10.0, 16.0),
                extra_capacity_fractions=(0.0, 0.5),
            ),
        )
        for explorer in explorers
    ]
    best = {key: {} for key, _, _ in sites}
    for strategy in Strategy:
        fleet = sweep_fleet(sites, strategy, batch_size=512)
        assert fleet.complete, fleet.statuses()
        for key in best:
            best[key][strategy] = fleet.site(key).result.best
    return best


class TestFig15Verdicts:
    """Fig. 15 / §5.2: the carbon-optimal footprint of each solution."""

    def test_renewables_only_is_worst_at_every_site(self, fig15):
        for site, best in fig15.items():
            renewables = best[Strategy.RENEWABLES_ONLY].total_tons
            others = [
                e.total_tons for s, e in best.items() if s is not Strategy.RENEWABLES_ONLY
            ]
            assert renewables > max(others), site

    def test_battery_plus_cas_is_best_at_every_site(self, fig15):
        for site, best in fig15.items():
            combined = best[Strategy.RENEWABLES_BATTERY_CAS].total_tons
            assert combined <= min(e.total_tons for e in best.values()), site

    def test_batteries_cut_the_most_in_solar_only_regions(self, fig15):
        """'The reduction is most pronounced in regions that rely only on
        solar energy': every solar-only site's renew / renew+batt footprint
        ratio exceeds every other site's."""
        solar_only = {"NC", "GA", "TN", "AL"}
        assert solar_only == {
            site
            for site in fig15
            if CarbonExplorer(site).context.grid.authority.renewable_class
            is RenewableClass.SOLAR
        }
        ratios = {
            site: best[Strategy.RENEWABLES_ONLY].total_tons
            / best[Strategy.RENEWABLES_BATTERY].total_tons
            for site, best in fig15.items()
        }
        weakest_solar = min(ratios[site] for site in solar_only)
        strongest_other = max(r for site, r in ratios.items() if site not in solar_only)
        assert weakest_solar > strongest_other, ratios
