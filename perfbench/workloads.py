"""The three benchmark workloads: what each builds, runs, counts and checks.

Every workload sweeps or probes Table-1 sites through the public entry
points users run:

* ``fleet_batched`` -- the Fig. 15 / ``rank`` grid under all four
  strategies through ``sweep_fleet(workers=1, batch_size=512)``, the
  batched configuration the figure benches track.  ``kernels.batch`` does
  most of the work; no pool, no shm, no journal.
* ``fine_pool`` -- renewables-only over a fine investment grid with two
  workers and a journal, at all thirteen sites.  Each evaluation is cheap,
  so engine dispatch, result pickling, validation and journal appends
  dominate.
* ``coverage_probe`` -- the Fig. 9 battery-hours probe and the Fig. 12
  extra-capacity probe over a 4x4 solar x wind multiples grid per site,
  in-process.  It never touches the engine or ``kernels.batch``.

Each workload sweeps as many Table-1 sites as keep one fresh process at
about 2-5 s, so that a run's figures rest on several processes: a
batched site block costs ~1-3 s whatever its row count.  AL is
solar-only: in ``fleet_batched`` its battery and ``all`` blocks are below
the batch floor and run as per-design fallback rows, so the per-design
battery and combined kernels are exercised in-process there.

An *operation* is one (site, strategy) sweep or one probe.  This module
imports :mod:`repro` lazily so that setting up a workload -- the import
included -- happens inside the timed set-up of a fresh process.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
from typing import Any, Dict, List, Optional, Tuple

#: The Fig. 15 / ``repro rank`` design-space axes.
FIG15_AXES = dict(
    n_renewable_steps=4,
    battery_hours=(0.0, 2.0, 5.0, 10.0, 16.0),
    extra_capacity_fractions=(0.0, 0.5),
)

#: The fine investment grid of ``fine_pool`` (8220 renewables-only designs
#: over the thirteen sites).
FINE_AXES = dict(n_renewable_steps=30)

#: Sites per workload (Table-1 codes); see the module docstring.
FLEET_SITES = ("NE", "AL")
PROBE_SITES = ("NE", "NM", "VA", "AL")

#: Solar and wind investment multiples of average load probed per site
#: (the Fig. 9 axes); a resource the site's grid lacks collapses to 0.
PROBE_MULTIPLES = (4.0, 8.0, 16.0, 32.0)

#: Fig. 9's battery search ceiling, hours of average load.
PROBE_MAX_HOURS = 120.0

#: Short strategy names, used in answer keys and layer metric names.
STRATEGY_KEYS = {
    "RENEWABLES_ONLY": "renewables",
    "RENEWABLES_BATTERY": "battery",
    "RENEWABLES_CAS": "cas",
    "RENEWABLES_BATTERY_CAS": "all",
}


def child_env(src_dir: str) -> Dict[str, str]:
    """Environment for a ``child.py`` process: repro from ``src_dir``.

    ``REPRO_*`` variables are dropped: the workloads pin their own engine
    configuration, whatever the caller's environment says.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
    return env


@dataclasses.dataclass(frozen=True)
class Workload:
    """One workload: its grid, strategies and engine configuration."""

    name: str
    grid: str  # "fig15", "fine30" or "probe": the answer-table section
    strategies: Tuple[str, ...] = ()
    workers: int = 1
    batch_size: Optional[int] = None
    journal: bool = False
    sites: Tuple[str, ...] = ()  # Table-1 site codes; empty means all thirteen

    @property
    def is_probe(self) -> bool:
        return self.grid == "probe"


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "fleet_batched",
            "fig15",
            ("RENEWABLES_ONLY", "RENEWABLES_BATTERY", "RENEWABLES_CAS", "RENEWABLES_BATTERY_CAS"),
            workers=1,
            batch_size=512,
            sites=FLEET_SITES,
        ),
        Workload(
            "fine_pool", "fine30", ("RENEWABLES_ONLY",), workers=2, journal=True
        ),
        Workload("coverage_probe", "probe", sites=PROBE_SITES),
    )
}


@dataclasses.dataclass
class Prepared:
    """A workload's inputs, built during set-up."""

    workload: Workload
    explorers: List[Any]
    sites: List[Tuple[str, Any, Any]]  # (key, context, space) for sweep_fleet
    investments: List[List[Any]]  # per site, for probes

    @property
    def designs(self) -> int:
        """Design points (sweeps) or investments (probes) the run evaluates."""
        if self.workload.is_probe:
            return sum(len(per_site) for per_site in self.investments)
        from repro import Strategy

        return sum(
            len(list(space.points(Strategy[name])))
            for name in self.workload.strategies
            for _, _, space in self.sites
        )

    @property
    def operations(self) -> int:
        if self.workload.is_probe:
            return 2 * self.designs
        return len(self.sites) * len(self.workload.strategies)


def prepare(workload: Workload, seed: int) -> Prepared:
    """Import repro and build every site context and design space."""
    from repro import SITE_ORDER, CarbonExplorer
    from repro.grid import RenewableInvestment

    explorers = [
        CarbonExplorer(state, seed=seed) for state in workload.sites or SITE_ORDER
    ]
    sites: List[Tuple[str, Any, Any]] = []
    investments: List[List[Any]] = []
    if workload.is_probe:
        for explorer in explorers:
            avg = explorer.avg_power_mw
            context = explorer.context
            solar = PROBE_MULTIPLES if context.supports_solar else (0.0,)
            wind = PROBE_MULTIPLES if context.supports_wind else (0.0,)
            investments.append(
                [
                    RenewableInvestment(solar_mw=s * avg, wind_mw=w * avg)
                    for s in solar
                    for w in wind
                ]
            )
    else:
        axes = FIG15_AXES if workload.grid == "fig15" else FINE_AXES
        sites = [
            (explorer.state, explorer.context, explorer.default_space(**axes))
            for explorer in explorers
        ]
    return Prepared(workload, explorers, sites, investments)


def run(prepared: Prepared, journal_dir: Optional[str]) -> Dict[str, Any]:
    """The timed phase: every sweep or probe of the workload.

    Returns the raw outcome -- ``{strategy name: FleetResult}`` for sweeps,
    ``{site: [(hours, extra), ...]}`` for probes -- checked after timing.
    """
    workload = prepared.workload
    if workload.is_probe:
        answers: Dict[str, Any] = {}
        for explorer, investments in zip(prepared.explorers, prepared.investments):
            answers[explorer.state] = [
                (
                    explorer.battery_hours_for_full_coverage(
                        investment, max_hours_of_load=PROBE_MAX_HOURS
                    ),
                    explorer.additional_capacity_for_full_coverage(investment),
                )
                for investment in investments
            ]
        return answers

    from repro import Strategy
    from repro.core.fleet import sweep_fleet

    results: Dict[str, Any] = {}
    for name in workload.strategies:
        checkpoint = (
            os.path.join(journal_dir, STRATEGY_KEYS[name]) if workload.journal else None
        )
        results[name] = sweep_fleet(
            prepared.sites,
            Strategy[name],
            workers=workload.workers,
            batch_size=workload.batch_size,
            checkpoint=checkpoint,
        )
    return results


def evaluations_digest(evaluations) -> str:
    """Order-sensitive digest of every field of every evaluation.

    ``repr`` of a float round-trips exactly, so two digests agree only if
    the evaluations are bitwise identical.
    """
    h = hashlib.sha256()
    for evaluation in evaluations:
        h.update(repr(dataclasses.astuple(evaluation)).encode())
        h.update(b"\n")
    return h.hexdigest()[:20]


def observed_answers(prepared: Prepared, outcome: Dict[str, Any]) -> Dict[str, Any]:
    """What a run produced, in the layout of the known-answer table.

    Sweeps map ``site -> strategy key -> digest`` (``None`` when the site
    did not finish ``complete``); probes map ``site -> [[hours, extra]]``.
    """
    if prepared.workload.is_probe:
        return {site: [list(pair) for pair in pairs] for site, pairs in outcome.items()}
    observed: Dict[str, Dict[str, Optional[str]]] = {}
    for name, fleet in outcome.items():
        for sweep in fleet.sites:
            ok = sweep.status.value == "complete"
            observed.setdefault(sweep.site, {})[STRATEGY_KEYS[name]] = (
                evaluations_digest(sweep.evaluations) if ok else None
            )
    return observed


def reference_answers(workload: Workload, seed: int) -> Dict[str, Any]:
    """Known answers from the serial per-design path, without the engine.

    Sweeps evaluate every design of the grid with ``evaluate_design`` in
    grid order -- the oracle the batched and pooled paths must equal bit
    for bit.  Probes have one implementation, so their reference is the
    probe itself, run in a separate process.
    """
    prepared = prepare(workload, seed)
    if workload.is_probe:
        return observed_answers(prepared, run(prepared, None))
    from repro import Strategy
    from repro.core.evaluate import evaluate_design

    answers: Dict[str, Dict[str, str]] = {}
    for name in workload.strategies:
        strategy = Strategy[name]
        for key, context, space in prepared.sites:
            evaluations = [
                evaluate_design(context, design, strategy)
                for design in space.points(strategy)
            ]
            answers.setdefault(key, {})[STRATEGY_KEYS[name]] = evaluations_digest(
                evaluations
            )
    return answers


def count_failures(
    workload: Workload, observed: Dict[str, Any], known: Dict[str, Any]
) -> List[str]:
    """One message per failed operation (mismatch, missing or incomplete)."""
    failures: List[str] = []
    sites = workload.sites or tuple(known)
    if workload.is_probe:
        for site in sites:
            expected = known[site]
            got = observed.get(site, [])
            for index, want in enumerate(expected):
                for kind, position in (("battery", 0), ("cas", 1)):
                    value = got[index][position] if index < len(got) else None
                    if value != want[position]:
                        failures.append(
                            f"{site} probe {index} {kind}: {value!r} != {want[position]!r}"
                        )
        return failures
    for site in sites:
        for name in workload.strategies:
            key = STRATEGY_KEYS[name]
            got = observed.get(site, {}).get(key)
            if got != known[site][key]:
                failures.append(f"{site}/{key}: digest {got} != {known[site][key]}")
    return failures
