"""Figure 14: operational-vs-embodied Pareto frontiers for the four
strategies in Oregon, North Carolina, and Utah (FWR = 40%)."""

import json

from _common import bench_batch_size, bench_workers, emit, run_once

from repro import CarbonExplorer, Strategy, sweep_fleet
from repro.core import frontier_tail_ratio, knee_point, pareto_frontier
from repro.reporting import format_table, percent

REGIONS = (
    ("OR", "Oregon — majorly wind"),
    ("NC", "North Carolina — solar only"),
    ("UT", "Utah — wind and solar mix"),
)


def fig14_space(explorer):
    return explorer.default_space(
        n_renewable_steps=5,
        battery_hours=(0.0, 2.0, 5.0, 10.0, 16.0),
        extra_capacity_fractions=(0.0, 0.25, 0.5),
    )


def frontier_for(explorer, strategy):
    return pareto_frontier(
        explorer.optimize(
            strategy,
            fig14_space(explorer),
            workers=bench_workers(),
            batch_size=bench_batch_size(),
        ).evaluations
    )


def sweep_regions(explorers, strategy):
    """One fleet sweep over every region; results in region order."""
    fleet = sweep_fleet(
        [
            (explorer.context.site_state, explorer.context, fig14_space(explorer))
            for explorer in explorers
        ],
        strategy,
        workers=bench_workers(),
        batch_size=bench_batch_size(),
    )
    assert fleet.complete, fleet.statuses()
    return [fleet.site(explorer.context.site_state).result for explorer in explorers]


def build_fig14() -> str:
    explorers = [CarbonExplorer(state) for state, _ in REGIONS]
    frontiers_by_strategy = {
        strategy: [
            pareto_frontier(result.evaluations)
            for result in sweep_regions(explorers, strategy)
        ]
        for strategy in Strategy
    }
    sections = []
    for index, (state, label) in enumerate(REGIONS):
        rows = []
        frontiers = {}
        for strategy in Strategy:
            frontier = frontiers[strategy] = frontiers_by_strategy[strategy][index]
            knee = knee_point(frontier)
            lowest_op = min(frontier, key=lambda e: e.operational_tons)
            rows.append(
                (
                    strategy.value,
                    len(frontier),
                    f"{knee.operational_tons:,.0f}",
                    f"{knee.embodied_tons:,.0f}",
                    percent(knee.coverage),
                    f"{lowest_op.operational_tons:,.0f}",
                    f"{lowest_op.embodied_tons:,.0f}",
                )
            )
        table = format_table(
            [
                "strategy",
                "|frontier|",
                "knee op t",
                "knee emb t",
                "knee cov",
                "tail op t",
                "tail emb t",
            ],
            rows,
            title=f"Figure 14 — Pareto frontier summary, {label}",
        )

        # Print the combined strategy's frontier explicitly (the full
        # curve) — reusing the sweep the summary table already ran.
        frontier = frontiers[Strategy.RENEWABLES_BATTERY_CAS]
        curve = format_table(
            ["embodied tCO2/yr", "operational tCO2/yr", "coverage", "design"],
            [
                (
                    f"{e.embodied_tons:,.0f}",
                    f"{e.operational_tons:,.0f}",
                    percent(e.coverage),
                    e.design.describe(),
                )
                for e in frontier
            ],
            title=f"{label}: frontier of renewables+battery+CAS",
        )
        tail = (
            frontier_tail_ratio(frontier) if len(frontier) >= 2 else float("nan")
        )
        sections.append(table + "\n\n" + curve + f"\nlong-tail ratio: {tail:.1f}x")
    return "\n\n".join(sections)


def test_fig14(benchmark):
    text = run_once(benchmark, build_fig14)
    out = emit("fig14", text)
    payload = json.loads(out.with_suffix(".json").read_text())
    if bench_workers() > 1:
        # Parallel sweeps ship a tiny shm handle per worker, not the
        # megabyte-scale pickled context.
        assert 0 < payload["trace_plane"]["context_pickle_bytes"] < 1024
        assert payload["trace_plane"]["shm_bytes_shared"] > 0
    # Zero-operational solutions must involve batteries (paper's frontier
    # observation) — verified here for Utah.
    explorer = CarbonExplorer("UT")
    frontier = frontier_for(explorer, Strategy.RENEWABLES_BATTERY_CAS)
    nearly_covered = [e for e in frontier if e.coverage > 0.999]
    assert all(e.design.battery_mwh > 0.0 for e in nearly_covered)
