"""Pooled windows: one pool task per worker's share of a round.

A pooled sweep of several sites ships *windows* -- one chunk per site, up
to ``ceil(sites / workers)`` of them -- to its workers, and commits them
chunk by chunk.  Windows are a dispatch detail only: every site's results
must equal its serial sweep bit for bit, every journal must hold the
serial journal's header and chunk lines, planned faults must recover
without counting any design twice, and a merging strategy must merge the
window's chunks into one kernel call inside the worker.
"""

from __future__ import annotations

import pytest

from repro.core import (
    Strategy,
    SweepEngine,
    build_site_context,
    fleet_checkpoint_path,
    sweep_fleet,
)
from repro.core.design import DesignSpace, default_design_space
from repro.core.shm import shared_memory_available
from repro.obs import (
    disable_metrics,
    disable_tracing,
    enable_metrics,
    enable_tracing,
    get_registry,
    get_tracer,
    reset_metrics,
    reset_tracing,
)
from repro.resilience import FleetFaultPlan

STRATEGY = Strategy.RENEWABLES_BATTERY

#: Five sites, so two workers get windows three chunks wide.
SITES = ("NE", "OR", "UT", "NM", "TX")

pytestmark = pytest.mark.skipif(
    not shared_memory_available(), reason="no multiprocessing.shared_memory"
)


def _small_space(context) -> DesignSpace:
    """Up to eight designs, one per chunk, honoring the region's resources."""
    return DesignSpace(
        solar_mw=(0.0, 30.0) if context.supports_solar else (0.0,),
        wind_mw=(0.0, 30.0) if context.supports_wind else (0.0,),
        battery_mwh=(0.0, 50.0),
        extra_capacity_fractions=(0.0,),
    )


@pytest.fixture(scope="module")
def contexts():
    return {state: build_site_context(state) for state in SITES}


@pytest.fixture(scope="module")
def fleet(contexts):
    return [(state, contexts[state], _small_space(contexts[state])) for state in SITES]


@pytest.fixture(scope="module")
def serial(fleet, tmp_path_factory):
    """The serial sweep and the base path of its journals."""
    base = tmp_path_factory.mktemp("serial") / "fleet.jsonl"
    return sweep_fleet(fleet, STRATEGY, workers=1, checkpoint=base), base


@pytest.fixture()
def window_widths(monkeypatch):
    """Record the width of every window the pooled dispatch builds."""
    widths = []
    original = SweepEngine._next_window

    def spy(self, *args):
        window, fault, cursor = original(self, *args)
        if window:
            widths.append(len(window))
        return window, fault, cursor

    monkeypatch.setattr(SweepEngine, "_next_window", spy)
    return widths


@pytest.fixture()
def counters():
    reset_metrics()
    enable_metrics()
    yield get_registry()
    disable_metrics()
    reset_metrics()


def _journal(base, key):
    with open(fleet_checkpoint_path(base, key)) as handle:
        header, *chunks = handle.read().splitlines()
    return header, set(chunks)


def test_windowed_sweep_is_bitwise_serial(fleet, serial, window_widths, tmp_path):
    reference, serial_base = serial
    base = tmp_path / "fleet.jsonl"
    result = sweep_fleet(fleet, STRATEGY, workers=2, checkpoint=base)
    assert result.complete
    assert max(window_widths) == 3
    for key in SITES:
        assert result.site(key).evaluations == reference.site(key).evaluations, key
        assert result.site(key).best == reference.site(key).best, key
        assert _journal(base, key) == _journal(serial_base, key), key


def test_planned_faults_recover_without_double_counting(
    fleet, serial, window_widths, counters
):
    reference, _ = serial
    result = sweep_fleet(
        fleet,
        STRATEGY,
        workers=2,
        faults=FleetFaultPlan.from_spec("kill=0;corrupt=1"),
    )
    assert max(window_widths) > 1
    for key in SITES:
        assert result.site(key).evaluations == reference.site(key).evaluations, key
    assert counters.counter_value("chunk_failures") >= len(SITES)
    assert counters.counter_value("designs_evaluated") == sum(
        space.size(STRATEGY) for _, _, space in fleet
    )


def test_merging_strategy_merges_windows_inside_the_workers(
    contexts, counters, monkeypatch
):
    # A 24-row floor lets these small blocks merge; pool workers inherit it.
    monkeypatch.setenv("REPRO_BATCH_MIN_ROWS", "24")
    strategy = Strategy.RENEWABLES_BATTERY_CAS
    sites = []
    for state in SITES:
        context = contexts[state]
        space = default_design_space(
            float(context.demand.power.values.mean()),
            context.supports_solar,
            context.supports_wind,
            n_renewable_steps=2,
            battery_hours=(0.0, 5.0),
            extra_capacity_fractions=(0.0, 0.5),
        )
        sites.append((state, context, space))
    reference = sweep_fleet(sites, strategy, workers=1, batch_size=512)
    reset_metrics()
    reset_tracing()
    enable_tracing()
    try:
        pooled = sweep_fleet(sites, strategy, workers=2, batch_size=512)
        rounds = [
            record["attrs"]["sites"]
            for _, records in get_tracer().foreign_spans()
            for record in records
            if record["name"] == "evaluate_round"
        ]
    finally:
        disable_tracing()
        reset_tracing()
    assert any(len(merged) > 1 for merged in rounds), rounds
    assert counters.counter_value("designs_batched") > 0
    for state in SITES:
        assert pooled.site(state).evaluations == reference.site(state).evaluations
