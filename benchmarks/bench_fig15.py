"""Figure 15: the total (operational + embodied) footprint of the
carbon-optimal setting of each solution, per MW of datacenter capacity, for
all thirteen regions — with coverage annotations (stars = 100%)."""

from _common import bench_workers, emit, run_once

from repro import CarbonExplorer, SITE_ORDER, Strategy, sweep_fleet
from repro.reporting import format_table, percent

_STRATEGY_LABELS = {
    Strategy.RENEWABLES_ONLY: "renew",
    Strategy.RENEWABLES_BATTERY: "renew+batt",
    Strategy.RENEWABLES_CAS: "renew+CAS",
    Strategy.RENEWABLES_BATTERY_CAS: "all",
}


def fig15_space(explorer):
    return explorer.default_space(
        n_renewable_steps=4,
        battery_hours=(0.0, 2.0, 5.0, 10.0, 16.0),
        extra_capacity_fractions=(0.0, 0.5),
    )


def build_fig15() -> str:
    explorers = [CarbonExplorer(state) for state in SITE_ORDER]
    sites = [
        (explorer.context.site_state, explorer.context, fig15_space(explorer))
        for explorer in explorers
    ]
    per_site = [{} for _ in explorers]
    for strategy in Strategy:
        fleet = sweep_fleet(
            sites,
            strategy,
            workers=bench_workers(),
            batch_size=512,
        )
        assert fleet.complete, fleet.statuses()
        for (key, _, _), results in zip(sites, per_site):
            results[strategy] = fleet.site(key).result

    rows = []
    for explorer, results in zip(explorers, per_site):
        row = [
            explorer.context.site_state,
            explorer.context.grid.authority.renewable_class.value,
        ]
        for strategy in Strategy:
            best = results[strategy].best
            row.append(annotate_per_mw(best, explorer.avg_power_mw))
        rows.append(row)

    table = format_table(
        ["site", "region type"] + [_STRATEGY_LABELS[s] for s in Strategy],
        rows,
        title=(
            "Figure 15: carbon-optimal total footprint per MW of DC capacity "
            "(tCO2eq/yr/MW, coverage in parens, * = 100% 24/7)"
        ),
    )
    return table


def annotate_per_mw(evaluation, avg_power_mw: float) -> str:
    coverage = evaluation.coverage
    star = " *" if coverage > 0.9999 else ""
    return f"{evaluation.total_tons / avg_power_mw:,.0f} ({percent(coverage, 0)}){star}"


def test_fig15(benchmark):
    text = run_once(benchmark, build_fig15)
    emit("fig15", text)
    lines = [l for l in text.splitlines() if l and l[:2] in SITE_ORDER]
    assert len(lines) == 13
