"""Command-line interface: ``python -m repro <command> ...``.

Wraps the library's main analyses for shell use:

* ``coverage``   — 24/7 coverage of an investment at a site (Fig. 7)
* ``battery``    — battery hours needed for 100% coverage (Fig. 9)
* ``schedule``   — greedy CAS benefit at a site (Figs. 11/12)
* ``optimize``   — carbon-optimal design per strategy (Fig. 15)
* ``rank``       — rank all thirteen sites by optimal footprint
* ``scenarios``  — grid-mix / Net-Zero / 24-7 intensity summary (Fig. 6)
* ``gap``        — annual vs monthly vs hourly matching (§3.2)
* ``stats``      — run a small instrumented sweep, print trace + metrics
* ``journal``    — inspect checkpoint journals (fingerprint, progress,
  resumability verdict)
* ``export-grid``   — write a balancing authority's year as EIA-style CSV
* ``export-demand`` — write a site's demand trace as CSV
* ``lint``       — static invariant checks over the source tree
  (also available standalone as ``python -m repro.lint``)

Every command additionally accepts the observability flags ``--log-level``
(console logging for the ``repro.*`` namespace), ``--trace-out FILE``
(record spans, write a span-tree JSON — or Chrome ``trace_event`` JSON
when the filename contains ``chrome``), ``--metrics-out FILE``
(record counters/histograms, write a JSON snapshot), and
``--metrics-prom FILE`` (write a Prometheus text-format exposition,
atomically, on exit).

The sweep commands further accept ``--metrics-port PORT`` (serve live
Prometheus ``/metrics`` over HTTP while the command runs; ``0`` picks a
free port) and ``--events-out FILE`` (stream the sweep's lifecycle
events — ``sweep_started``, ``chunk_completed``, ``frontier_updated``,
... — to a JSONL file as they happen).

The sweep commands (``optimize``, ``rank``, ``stats``) also accept the
resilience flags ``--checkpoint FILE`` (journal completed chunks as the
sweep runs), ``--resume`` (skip chunks already journaled by a previous
interrupted run), ``--max-retries N`` and ``--chunk-timeout S`` (parallel
fault tolerance), and ``--fault-plan SPEC`` (deterministic fault
injection in pool workers for testing: ``kill=0;delay=1:0.5;corrupt=2``
addresses chunk ordinals at every site, ``UT:kill@0.5;OR:shm;attempts=1``
addresses sites).

``rank`` runs the whole fleet through one shared worker pool
(:func:`repro.core.sweep_fleet`): every site is an isolated fault
domain, ``--deadline SECONDS`` bounds the fleet's wall clock (unfinished
sites report ``deadline_exceeded`` with partial results), and
``--stream`` prints frontier/quarantine/deadline events live as JSON
lines, from a subscriber of the sweep's event bus.  A Ctrl-C prints the
partial rank table for the sites that finished before exiting 130.

Every command prints a plain-text table and exits 0 on success; argument
errors exit 2 (argparse) and domain errors exit 1 with a message on
stderr.  An interrupted checkpointed sweep exits 130 after flushing the
journal and printing how to ``--resume``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from typing import Dict, Iterator, List, Optional, Sequence

from .battery import BatterySpec
from .carbon import SupplyScenario, matching_gap
from .core import (
    CarbonExplorer,
    FleetInterrupted,
    SiteSweep,
    Strategy,
    sweep_fleet,
)
from .core.optimizer import optimize_all_strategies, strategy_checkpoint_path
from .resilience import FleetFaultPlan, SweepInterrupted, inspect_journal
from .resilience.checkpoint import sweep_journal_path
from .datacenter import SITE_ORDER
from .grid import RenewableInvestment, generate_grid_dataset
from .io import write_grid_csv, write_trace_csv
from .lint.cli import add_lint_arguments, run_from_args as run_lint_from_args
from .obs import (
    JsonlSink,
    ProgressTicker,
    SweepEvents,
    configure_logging,
    disable_metrics,
    disable_tracing,
    enable_metrics,
    enable_tracing,
    metrics_enabled,
    render_metrics,
    render_trace,
    reset_metrics,
    reset_tracing,
    save_metrics,
    save_prometheus,
    save_trace,
    start_metrics_server,
    tracing_enabled,
)
from .reporting import format_table, percent

_STRATEGY_BY_NAME = {
    "renewables": Strategy.RENEWABLES_ONLY,
    "battery": Strategy.RENEWABLES_BATTERY,
    "cas": Strategy.RENEWABLES_CAS,
    "all": Strategy.RENEWABLES_BATTERY_CAS,
}


def _explorer(args: argparse.Namespace) -> CarbonExplorer:
    return CarbonExplorer(args.state, year=args.year, seed=args.seed)


def _investment(args: argparse.Namespace, explorer: CarbonExplorer) -> RenewableInvestment:
    if args.solar is None and args.wind is None:
        return explorer.existing_investment()
    return RenewableInvestment(solar_mw=args.solar or 0.0, wind_mw=args.wind or 0.0)


def _obs_parent() -> argparse.ArgumentParser:
    """Shared observability flags, attached to every subcommand."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("observability")
    group.add_argument(
        "--log-level",
        choices=["debug", "info", "warning", "error"],
        default=None,
        help="enable console logging for the repro.* namespace",
    )
    group.add_argument(
        "--trace-out",
        metavar="FILE",
        default=None,
        help="record spans; write span-tree JSON (Chrome trace_event "
        "format if the filename contains 'chrome')",
    )
    group.add_argument(
        "--metrics-out",
        metavar="FILE",
        default=None,
        help="record metrics; write a JSON snapshot",
    )
    group.add_argument(
        "--metrics-prom",
        metavar="FILE",
        default=None,
        help="record metrics; write a Prometheus text-format exposition "
        "(atomically, for the node-exporter textfile collector)",
    )
    return parent


def _add_telemetry_arguments(parser: argparse.ArgumentParser) -> None:
    """Live-telemetry flags for the sweep commands (optimize/rank/stats)."""
    group = parser.add_argument_group("telemetry")
    group.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve live Prometheus metrics on http://127.0.0.1:PORT/metrics "
        "while the command runs (0 picks a free port, printed on stderr)",
    )
    group.add_argument(
        "--events-out",
        metavar="FILE",
        default=None,
        help="stream sweep lifecycle events (sweep_started, chunk_completed, "
        "frontier_updated, ...) to FILE as JSON lines while the sweep runs",
    )


def _enable_collectors(trace: bool, metrics: bool) -> None:
    """Reset-and-enable the requested collectors.

    One invocation = one dataset: prior in-process spans/metrics are
    cleared so the files written at exit cover exactly this run.  Shared
    by the flag-driven wiring in :func:`_obs_session` and the
    force-enabled ``stats`` command.
    """
    if trace:
        reset_tracing()
        enable_tracing()
    if metrics:
        reset_metrics()
        enable_metrics()


@contextlib.contextmanager
def _obs_session(args: argparse.Namespace) -> Iterator[None]:
    """Wire the shared observability flags around a command invocation.

    ``--log-level`` attaches a console handler to the ``repro`` logger;
    ``--trace-out`` / ``--metrics-out`` / ``--metrics-prom`` enable the
    respective collectors and write their files when the command finishes
    — including on domain errors, so a failed run can still be inspected.
    ``--metrics-port`` serves live ``/metrics`` for the duration of the
    command; ``--events-out`` opens a :class:`~repro.obs.JsonlSink` on a
    fresh :class:`~repro.obs.SweepEvents` bus, published to the sweep
    handlers as ``args.events_bus``.
    """
    if getattr(args, "log_level", None):
        configure_logging(args.log_level)
    trace_out = getattr(args, "trace_out", None)
    metrics_out = getattr(args, "metrics_out", None)
    metrics_prom = getattr(args, "metrics_prom", None)
    metrics_port = getattr(args, "metrics_port", None)
    events_out = getattr(args, "events_out", None)
    want_metrics = bool(metrics_out or metrics_prom or metrics_port is not None)
    _enable_collectors(
        trace=bool(trace_out) and not tracing_enabled(),
        metrics=want_metrics and not metrics_enabled(),
    )
    server = None
    sink = None
    args.events_bus = None
    if metrics_port is not None:
        server = start_metrics_server(port=metrics_port)
        print(f"serving metrics on {server.url}", file=sys.stderr)
    if events_out:
        sink = JsonlSink(events_out)
        args.events_bus = SweepEvents()
        args.events_bus.subscribe(sink)
    try:
        yield
    finally:
        if args.events_bus is not None:
            args.events_bus.close()
        if sink is not None:
            sink.close()
        if server is not None:
            server.close()
        if trace_out:
            save_trace(trace_out)
        if metrics_out:
            save_metrics(metrics_out)
        if metrics_prom:
            save_prometheus(metrics_prom)


def _add_site_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("state", choices=SITE_ORDER, help="Table-1 site code")
    parser.add_argument("--year", type=int, default=2020, help="simulated year")
    parser.add_argument("--seed", type=int, default=0, help="weather/demand seed")


def _add_workers_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for the sweep (1 = in-process serial)",
    )
    parser.add_argument(
        "--no-shm",
        action="store_true",
        help="ship full pickled contexts to sweep workers instead of the "
        "shared-memory trace plane (escape hatch for platforms without "
        "POSIX shared memory; results are identical either way)",
    )
    parser.add_argument(
        "--batch-size",
        type=int,
        default=None,
        metavar="N",
        help="widen sweep chunks to at least N designs; routing depends only "
        "on block size: CAS blocks of 8+ rows and combined rounds of 160+ "
        "rows run one (design x hour) kernel call, battery rows the seeded "
        "per-design kernel unless REPRO_BATCH_MIN_ROWS sets a floor, which "
        "merges battery rounds into the combined kernel's lockstep call "
        "(results are bitwise-identical at any N; try a few hundred)",
    )


def _add_resilience_arguments(parser: argparse.ArgumentParser) -> None:
    """Shared fault-tolerance / checkpoint flags for the sweep commands."""
    group = parser.add_argument_group("resilience")
    group.add_argument(
        "--checkpoint",
        metavar="FILE",
        default=None,
        help="journal completed sweep chunks to FILE as the sweep runs",
    )
    group.add_argument(
        "--resume",
        action="store_true",
        help="skip chunks already journaled in --checkpoint by a prior run",
    )
    group.add_argument(
        "--max-retries",
        type=int,
        default=2,
        help="retries per failed parallel chunk before its site is "
        "quarantined and its remaining chunks run serially in-process",
    )
    group.add_argument(
        "--chunk-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="initial stall budget: retry a chunk still running after "
        "SECONDS; once chunks complete, a moving average of their "
        "durations sets the budget",
    )
    group.add_argument(
        "--fault-plan",
        metavar="SPEC",
        default=None,
        help="deterministic fault injection in pool workers, for testing: "
        "chunk ordinals at every site, e.g. 'kill=0;delay=1:0.5;corrupt=2', "
        "and/or site-scoped faults, e.g. 'UT:kill@0.5;OR:shm;attempts=1;seed=7'",
    )


def _resilience_kwargs(args: argparse.Namespace) -> dict:
    """Translate the resilience flags into ``optimize()`` keyword arguments.

    The ``checkpoint`` path is left to each command, which may derive
    per-strategy or per-site paths from the base the user gave.
    """
    return {
        "max_retries": args.max_retries,
        "chunk_timeout": args.chunk_timeout,
        "resume": args.resume,
        "shm": not getattr(args, "no_shm", False),
        "events": getattr(args, "events_bus", None),
        "batch_size": getattr(args, "batch_size", None),
        "faults": _fault_plan(args),
    }


def _fault_plan(args: argparse.Namespace) -> Optional[FleetFaultPlan]:
    """Parse ``--fault-plan``, noting on stderr when it cannot fire."""
    if not args.fault_plan:
        return None
    plan = FleetFaultPlan.from_spec(args.fault_plan)
    if args.workers < 2:
        print(
            "note: --fault-plan fires in pool workers; "
            "with --workers 1 the sweep runs in-process and injects nothing",
            file=sys.stderr,
        )
    return plan


def _add_investment_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--solar", type=float, default=None, help="solar MW (default: Meta's regional)"
    )
    parser.add_argument(
        "--wind", type=float, default=None, help="wind MW (default: Meta's regional)"
    )


def cmd_coverage(args: argparse.Namespace) -> None:
    explorer = _explorer(args)
    investment = _investment(args, explorer)
    coverage = explorer.coverage(investment)
    print(
        format_table(
            ["site", "solar MW", "wind MW", "24/7 coverage"],
            [
                (
                    args.state,
                    f"{investment.solar_mw:.0f}",
                    f"{investment.wind_mw:.0f}",
                    percent(coverage),
                )
            ],
        )
    )


def cmd_battery(args: argparse.Namespace) -> None:
    explorer = _explorer(args)
    investment = _investment(args, explorer)
    hours = explorer.battery_hours_for_full_coverage(
        investment, max_hours_of_load=args.max_hours
    )
    mwh = hours * explorer.avg_power_mw if not math.isinf(hours) else float("inf")
    print(
        format_table(
            ["site", "battery for 24/7 (hours)", "battery for 24/7 (MWh)"],
            [
                (
                    args.state,
                    "unreachable" if math.isinf(hours) else f"{hours:.1f}",
                    "unreachable" if math.isinf(hours) else f"{mwh:,.0f}",
                )
            ],
        )
    )


def cmd_schedule(args: argparse.Namespace) -> None:
    explorer = _explorer(args)
    investment = _investment(args, explorer)
    before = explorer.coverage(investment)
    result = explorer.schedule(
        investment,
        capacity_mw=explorer.demand_power.max() * args.capacity_multiple,
        flexible_ratio=args.fwr,
    )
    supply = explorer.renewable_supply(investment)
    after = 1.0 - (
        (result.shifted_demand - supply).positive_part().total()
        / explorer.demand_power.total()
    )
    print(
        format_table(
            ["site", "FWR", "coverage before", "coverage after", "moved MWh", "extra capacity"],
            [
                (
                    args.state,
                    percent(args.fwr, 0),
                    percent(before),
                    percent(after),
                    f"{result.moved_mwh:,.0f}",
                    percent(result.additional_capacity_fraction()),
                )
            ],
        )
    )


def cmd_optimize(args: argparse.Namespace) -> None:
    explorer = _explorer(args)
    space = explorer.default_space(
        n_renewable_steps=args.renewable_steps,
        battery_hours=tuple(args.battery_hours),
        extra_capacity_fractions=tuple(args.extra_capacity),
        flexible_ratio=args.fwr,
    )
    strategies = (
        list(Strategy)
        if args.strategy == "each"
        else [_STRATEGY_BY_NAME[args.strategy]]
    )
    resilience = _resilience_kwargs(args)
    rows = []
    for strategy in strategies:
        if args.checkpoint:
            # One journal per strategy: a single sweep uses the path the
            # user gave, an "each" run derives suffixed per-strategy paths.
            resilience["checkpoint"] = (
                args.checkpoint
                if len(strategies) == 1
                else strategy_checkpoint_path(args.checkpoint, strategy)
            )
        best = explorer.optimize(
            strategy, space, workers=args.workers, **resilience
        ).best
        rows.append(
            (
                strategy.value,
                percent(best.coverage),
                f"{best.operational_tons:,.0f}",
                f"{best.embodied_tons:,.0f}",
                f"{best.total_tons:,.0f}",
                best.design.describe(),
            )
        )
    print(
        format_table(
            ["strategy", "coverage", "op t/yr", "emb t/yr", "total t/yr", "design"],
            rows,
            title=f"Carbon-optimal designs, {args.state}",
        )
    )


#: Event kinds ``rank --stream`` narrates: tens of lines per site.
#: ``chunk_completed`` is left out deliberately — hundreds of lines of
#: chunk bookkeeping would bury the frontier improvements the stream
#: exists to surface.
_STREAMED_KINDS = frozenset(
    {
        "sweep_started",
        "frontier_updated",
        "chunk_retried",
        "capacity_stolen",
        "site_quarantined",
        "sweep_degraded",
        "deadline_exceeded",
        "sweep_finished",
    }
)


def _stream_printer(event) -> None:
    """Print one bus event as a greppable, JSON-payload stream line.

    A bus subscriber, like ``--events-out``'s JSONL sink: it runs
    synchronously in the sweep's dispatch thread as each event fires, so
    every stream line lands before the rank table prints.  The payload
    is emitted as JSON (full float precision), so a consumer can
    reconstruct per-site frontiers from the ``frontier_updated``
    lines and diff them against the final table — the fleet-chaos CI
    smoke does exactly that.
    """
    if event.kind not in _STREAMED_KINDS:
        return
    print(
        f"stream {event.kind} {json.dumps(event.payload, sort_keys=True)}",
        flush=True,
    )


def _parse_rank_sites(spec: Optional[str]) -> List[str]:
    if not spec:
        return list(SITE_ORDER)
    sites = [token.strip().upper() for token in spec.split(",") if token.strip()]
    unknown = [site for site in sites if site not in SITE_ORDER]
    if unknown:
        raise ValueError(
            f"unknown site(s) {', '.join(unknown)}; "
            f"choose from {', '.join(SITE_ORDER)}"
        )
    if not sites:
        raise ValueError("--sites needs at least one site code")
    return sites


def _print_rank_table(
    strategy: Strategy,
    explorers: Dict[str, CarbonExplorer],
    sweeps: Sequence[SiteSweep],
    partial: bool = False,
) -> None:
    """The rank table, tolerant of unfinished sites.

    An unfinished site's ``best`` is the best over what it committed — a
    provisional number — so its row carries the non-``complete`` status
    that says how far it got.
    """
    rows = []
    for sweep in sweeps:
        explorer = explorers[sweep.site]
        best = sweep.best
        per_mw = best.total_tons / explorer.avg_power_mw if best else math.inf
        rows.append(
            (
                sweep.site,
                explorer.context.grid.authority.renewable_class.value,
                sweep.status.value,
                f"{per_mw:,.0f}" if best else "--",
                percent(best.coverage) if best else "--",
                per_mw,
            )
        )
    rows.sort(key=lambda r: r[-1])
    title = f"Site ranking, strategy: {strategy.value}"
    if partial:
        title += " (partial: interrupted)"
    print(
        format_table(
            ["site", "region type", "status", "tCO2/yr per MW", "coverage"],
            [r[:-1] for r in rows],
            title=title,
        )
    )


def cmd_rank(args: argparse.Namespace) -> Optional[int]:
    strategy = _STRATEGY_BY_NAME[args.strategy]
    faults = _fault_plan(args)
    sites = _parse_rank_sites(args.sites)
    explorers: Dict[str, CarbonExplorer] = {}
    fleet_sites = []
    for state in sites:
        explorer = CarbonExplorer(state, year=args.year, seed=args.seed)
        space = explorer.default_space(
            n_renewable_steps=4,
            battery_hours=(0.0, 2.0, 5.0, 10.0, 16.0),
            extra_capacity_fractions=(0.0, 0.5),
        )
        explorers[state] = explorer
        fleet_sites.append((state, explorer.context, space))

    bus = args.events_bus
    if args.stream:
        if bus is None:
            bus = SweepEvents()
        bus.subscribe(_stream_printer)
    try:
        fleet = sweep_fleet(
            fleet_sites,
            strategy,
            workers=args.workers,
            deadline_s=args.deadline,
            max_retries=args.max_retries,
            chunk_timeout=args.chunk_timeout,
            checkpoint=args.checkpoint,
            resume=args.resume,
            faults=faults,
            shm=not args.no_shm,
            events=bus,
            batch_size=args.batch_size,
        )
    except FleetInterrupted as interrupted:  # repro-lint: disable=RL006 — process boundary: partial table + exit code 130
        _print_rank_table(strategy, explorers, interrupted.completed, partial=True)
        hint = (
            f"; journals under {interrupted.checkpoint}.<site> resume with "
            "--resume"
            if interrupted.checkpoint
            else "; re-run with --checkpoint to make interrupts resumable"
        )
        print(
            f"interrupted: {len(interrupted.completed)}/{len(sites)} sites "
            f"finished ({interrupted.strategy}){hint}",
            file=sys.stderr,
        )
        return 130
    _print_rank_table(strategy, explorers, fleet.sites)
    if args.deadline is not None:
        unfinished = sum(1 for s in fleet.sites if s.result is None)
        print(
            f"fleet finished in {fleet.elapsed_s:.1f}s of the "
            f"{args.deadline:.1f}s budget"
            + (f"; {unfinished} site(s) cut off" if unfinished else ""),
            file=sys.stderr,
        )
    return None


def cmd_scenarios(args: argparse.Namespace) -> None:
    explorer = _explorer(args)
    investment = _investment(args, explorer)
    battery = explorer.simulate_battery(
        investment, BatterySpec(args.battery_hours_247 * explorer.avg_power_mw)
    )
    series = {
        "grid mix": explorer.scenario_intensity(SupplyScenario.GRID_MIX, investment),
        "net zero": explorer.scenario_intensity(SupplyScenario.NET_ZERO, investment),
        "24/7": explorer.scenario_intensity(
            SupplyScenario.CARBON_FREE_247, investment, residual_import=battery.grid_import
        ),
    }
    rows = [
        (name, f"{s.mean():.1f}", f"{s.max():.1f}")
        for name, s in series.items()
    ]
    print(
        format_table(
            ["scenario", "mean gCO2/kWh", "max gCO2/kWh"],
            rows,
            title=f"Supply-scenario intensity, {args.state}",
        )
    )


def cmd_gap(args: argparse.Namespace) -> None:
    explorer = _explorer(args)
    investment = _investment(args, explorer)
    gap = matching_gap(explorer.demand_power, explorer.renewable_supply(investment))
    print(
        format_table(
            ["matching granularity", "matched fraction"],
            [
                ("annual (Net Zero)", percent(gap.annual_fraction)),
                ("monthly", percent(gap.monthly_fraction)),
                ("hourly (24/7 CFE)", percent(gap.hourly_fraction)),
            ],
            title=f"REC matching gap, {args.state}",
        )
    )


def cmd_stats(args: argparse.Namespace) -> None:
    """Run a small instrumented sweep and print the span/metrics report.

    Tracing and metrics are force-enabled for the run (``--trace-out`` /
    ``--metrics-out`` still control whether files are written); prior
    in-process observability data is cleared so the report covers exactly
    this sweep.
    """
    was_tracing = tracing_enabled()
    was_metrics = metrics_enabled()
    _enable_collectors(trace=True, metrics=True)
    try:
        explorer = _explorer(args)
        space = explorer.default_space(
            n_renewable_steps=args.renewable_steps,
            battery_hours=tuple(args.battery_hours),
            extra_capacity_fractions=tuple(args.extra_capacity),
        )
        ticker = ProgressTicker()
        resilience = _resilience_kwargs(args)
        resilience["checkpoint"] = args.checkpoint
        if resilience["events"] is None:
            resilience["events"] = SweepEvents()
        resilience["events"].subscribe(ticker)
        try:
            results = optimize_all_strategies(
                explorer.context, space, workers=args.workers, **resilience
            )
        finally:
            ticker.close()
        rows = [
            (
                strategy.value,
                f"{result.n_evaluated}",
                percent(result.best.coverage),
                f"{result.best.total_tons:,.0f}",
            )
            for strategy, result in results.items()
        ]
        print(
            format_table(
                ["strategy", "designs evaluated", "best coverage", "best total t/yr"],
                rows,
                title=f"Instrumented sweep, {args.state}",
            )
        )
        print()
        print(render_trace(max_depth=2))
        print()
        print(render_metrics())
    finally:
        # Leave the enabled flags as the caller had them (the collected
        # data is retained so ``--trace-out``/``--metrics-out`` still
        # write after the handler returns).
        if not was_tracing:
            disable_tracing()
        if not was_metrics:
            disable_metrics()


def _expand_journal_paths(path: str) -> List[str]:
    """Resolve a journal argument to the journal files it names.

    An existing file is reported as-is.  A missing path is treated as a
    checkpoint *base* and expanded to every ``<base>.<label>`` sibling
    the two sweep layouts produce — strategy journals (``optimize``,
    one per :class:`Strategy`) and site journals (``rank``, one per
    fleet site) share the same suffix scheme via
    :func:`repro.resilience.checkpoint.sweep_journal_path`.  If no
    sibling exists either, the original path is returned so the table
    still shows a "damaged: no such file" verdict for it.
    """
    if os.path.exists(path):
        return [path]
    labels = [strategy.name for strategy in Strategy] + list(SITE_ORDER)
    expanded = []
    for label in labels:
        candidate = sweep_journal_path(path, label)
        if candidate is not None and os.path.exists(candidate):
            expanded.append(candidate)
    return expanded or [path]


def cmd_journal(args: argparse.Namespace) -> None:
    """Describe checkpoint journals: identity, progress, resumability.

    Built for the "is this interrupted rank worth resuming?" question:
    point it at ``<base>.<site>`` journals (globs expand in the shell)
    — or at the bare checkpoint base, which expands to whichever layout
    (per-strategy ``optimize`` journals or per-site ``rank`` journals)
    exists on disk — and read the verdict column.  Damaged journals are
    described, not fatal — the command never raises on journal contents.
    """
    rows = []
    for path in (p for arg in args.journals for p in _expand_journal_paths(arg)):
        info = inspect_journal(path)
        rows.append(
            (
                info.path,
                info.fingerprint[:12] if info.fingerprint else "--",
                info.strategy or "--",
                str(info.chunks),
                f"{info.evaluations_done}/{info.total}" if info.total else "--",
                info.verdict(),
            )
        )
    print(
        format_table(
            ["journal", "fingerprint", "strategy", "chunks", "evaluations", "verdict"],
            rows,
            title="Checkpoint journals",
        )
    )


def cmd_report(args: argparse.Namespace) -> None:
    from .core.report import ReportOptions, site_report

    options = ReportOptions(include_optimization=not args.quick)
    print(site_report(args.state, options=options, year=args.year, seed=args.seed))


def cmd_export_grid(args: argparse.Namespace) -> None:
    grid = generate_grid_dataset(args.authority, year=args.year, seed=args.seed)
    write_grid_csv(grid, args.output)
    print(f"wrote {grid.calendar.n_hours} hourly rows for {args.authority} to {args.output}")


def cmd_export_demand(args: argparse.Namespace) -> None:
    explorer = _explorer(args)
    write_trace_csv(explorer.demand_power, args.output)
    print(
        f"wrote {len(explorer.demand_power)} hourly rows for {args.state} to {args.output}"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Carbon Explorer: carbon-aware datacenter design exploration",
    )
    obs = _obs_parent()
    subparsers = parser.add_subparsers(dest="command", required=True)

    p = subparsers.add_parser("coverage", help="24/7 coverage of an investment", parents=[obs])
    _add_site_arguments(p)
    _add_investment_arguments(p)
    p.set_defaults(handler=cmd_coverage)

    p = subparsers.add_parser("battery", help="battery hours for 100%% coverage", parents=[obs])
    _add_site_arguments(p)
    _add_investment_arguments(p)
    p.add_argument("--max-hours", type=float, default=96.0, help="search ceiling")
    p.set_defaults(handler=cmd_battery)

    p = subparsers.add_parser("schedule", help="greedy CAS benefit", parents=[obs])
    _add_site_arguments(p)
    _add_investment_arguments(p)
    p.add_argument("--fwr", type=float, default=0.40, help="flexible workload ratio")
    p.add_argument(
        "--capacity-multiple", type=float, default=1.5, help="P_DC_MAX over peak"
    )
    p.set_defaults(handler=cmd_schedule)

    p = subparsers.add_parser("optimize", help="carbon-optimal design search", parents=[obs])
    _add_site_arguments(p)
    p.add_argument(
        "--strategy",
        choices=list(_STRATEGY_BY_NAME) + ["each"],
        default="each",
        help="solution portfolio ('each' = all four)",
    )
    p.add_argument("--fwr", type=float, default=0.40)
    p.add_argument("--renewable-steps", type=int, default=4)
    p.add_argument(
        "--battery-hours", type=float, nargs="+", default=[0.0, 2.0, 5.0, 10.0, 16.0]
    )
    p.add_argument("--extra-capacity", type=float, nargs="+", default=[0.0, 0.5])
    _add_workers_argument(p)
    _add_resilience_arguments(p)
    _add_telemetry_arguments(p)
    p.set_defaults(handler=cmd_optimize)

    p = subparsers.add_parser(
        "rank",
        help="rank all 13 sites (fleet sweep: fault domains, deadline, streaming)",
        parents=[obs],
    )
    p.add_argument("--strategy", choices=list(_STRATEGY_BY_NAME), default="all")
    p.add_argument("--year", type=int, default=2020)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--sites",
        metavar="LIST",
        default=None,
        help="comma-separated subset of Table-1 sites to rank (default: all 13)",
    )
    p.add_argument(
        "--stream",
        action="store_true",
        help="print every sweep event except chunk_completed (frontier, "
        "quarantine, steal, deadline, ...) live as 'stream <kind> <json>' "
        "lines while the fleet sweeps",
    )
    p.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="global wall-clock budget for the whole fleet; unfinished "
        "sites are reported as deadline_exceeded with partial results",
    )
    _add_workers_argument(p)
    _add_resilience_arguments(p)
    _add_telemetry_arguments(p)
    p.set_defaults(handler=cmd_rank)

    p = subparsers.add_parser("scenarios", help="Fig. 6 intensity summary", parents=[obs])
    _add_site_arguments(p)
    _add_investment_arguments(p)
    p.add_argument(
        "--battery-hours-247",
        type=float,
        default=10.0,
        help="battery (hours of load) behind the 24/7 scenario",
    )
    p.set_defaults(handler=cmd_scenarios)

    p = subparsers.add_parser("gap", help="annual vs hourly matching gap", parents=[obs])
    _add_site_arguments(p)
    _add_investment_arguments(p)
    p.set_defaults(handler=cmd_gap)

    p = subparsers.add_parser("report", help="full site report (all analyses)", parents=[obs])
    _add_site_arguments(p)
    p.add_argument(
        "--quick", action="store_true", help="skip the exhaustive-search section"
    )
    p.set_defaults(handler=cmd_report)

    p = subparsers.add_parser(
        "stats",
        help="small instrumented sweep: span tree + metrics report",
        parents=[obs],
    )
    _add_site_arguments(p)
    p.add_argument(
        "--renewable-steps", type=int, default=2, help="renewable axis resolution"
    )
    p.add_argument("--battery-hours", type=float, nargs="+", default=[0.0, 5.0])
    p.add_argument("--extra-capacity", type=float, nargs="+", default=[0.0])
    _add_workers_argument(p)
    _add_resilience_arguments(p)
    _add_telemetry_arguments(p)
    p.set_defaults(handler=cmd_stats)

    p = subparsers.add_parser("export-grid", help="write EIA-style grid CSV", parents=[obs])
    p.add_argument("authority", help="balancing authority code, e.g. PACE")
    p.add_argument("output", help="destination CSV path")
    p.add_argument("--year", type=int, default=2020)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=cmd_export_grid)

    p = subparsers.add_parser("export-demand", help="write a site demand CSV", parents=[obs])
    _add_site_arguments(p)
    p.add_argument("output", help="destination CSV path")
    p.set_defaults(handler=cmd_export_demand)

    p = subparsers.add_parser(
        "journal",
        help="inspect checkpoint journals: fingerprint, progress, verdict",
        description="Summarize --checkpoint journal files: schema version, "
        "sweep fingerprint, chunks and evaluations journaled, and a "
        "resumability verdict (resumable / complete / empty / damaged).",
        parents=[obs],
    )
    p.add_argument(
        "journals",
        nargs="+",
        metavar="FILE",
        help="journal path(s) written by --checkpoint, or a bare checkpoint "
        "base — expanded to <base>.<strategy> (optimize layout) and "
        "<base>.<site> (rank layout) siblings that exist on disk",
    )
    p.set_defaults(handler=cmd_journal)

    p = subparsers.add_parser(
        "lint",
        help="run the AST invariant checker over the source tree",
        description="Check the repro invariants (determinism, shm lifecycle, "
        "kernel purity, metric names, float equality, exception hygiene, "
        "event names) statically; exits 1 when findings are reported.",
        parents=[obs],
    )
    add_lint_arguments(p)
    p.set_defaults(handler=run_lint_from_args)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code.

    Observability wiring lives in :func:`_obs_session`.  Handlers may
    return an integer exit code (``lint`` returns 1 on findings);
    ``None`` means success.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with _obs_session(args):
            try:
                code = args.handler(args)
            except SweepInterrupted as interrupted:  # repro-lint: disable=RL006 — process boundary: convert to exit code 130
                print(
                    f"interrupted: {interrupted.done}/{interrupted.total} evaluations "
                    f"({interrupted.strategy}) journaled to {interrupted.checkpoint}; "
                    f"re-run with --resume to continue from there",
                    file=sys.stderr,
                )
                return 130
            except KeyboardInterrupt:  # repro-lint: disable=RL006 — process boundary: convert to exit code 130
                print("interrupted (no --checkpoint, progress not saved)", file=sys.stderr)
                return 130
            except (ValueError, KeyError) as error:
                print(f"error: {error}", file=sys.stderr)
                return 1
    except OSError as error:
        # Malformed output paths (--metrics-out, --events-out, a taken
        # --metrics-port, ...) must fail loudly but cleanly: a clear
        # message and a non-zero exit, not a traceback and not a swallow.
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 0 if code is None else code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
