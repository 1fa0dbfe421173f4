"""End-to-end check that the hot paths actually feed the collectors."""

import logging

import pytest

from repro.core.design import DesignSpace, Strategy
from repro.core.fleet import sweep_fleet
from repro.core.optimizer import optimize
from repro.obs import (
    SweepEvents,
    enable_metrics,
    enable_tracing,
    get_tracer,
    metrics_snapshot,
    reset_metrics,
    reset_tracing,
    trace_roots,
)
from repro.resilience import FleetFaultPlan, SiteFaultPolicy


@pytest.fixture()
def tiny_space() -> DesignSpace:
    """A 2-point grid with a real battery so simulate_battery runs."""
    return DesignSpace(
        solar_mw=(0.0, 30.0),
        wind_mw=(0.0,),
        battery_mwh=(60.0,),
    )


def _run_instrumented_sweep(ut_context, tiny_space):
    reset_tracing()
    reset_metrics()
    enable_tracing()
    enable_metrics()
    return optimize(ut_context, tiny_space, Strategy.RENEWABLES_BATTERY)


class TestPipelineInstrumentation:
    def test_sweep_increments_counters(self, ut_context, tiny_space):
        result = _run_instrumented_sweep(ut_context, tiny_space)
        counters = metrics_snapshot()["counters"]
        assert counters["designs_evaluated"] == result.n_evaluated
        assert counters["designs_evaluated"] > 0
        assert counters["sweeps_completed"] == 1
        assert counters["battery_sims"] >= result.n_evaluated
        assert counters["battery_sim_hours"] > 0

    def test_sweep_produces_expected_span_nesting(self, ut_context, tiny_space):
        _run_instrumented_sweep(ut_context, tiny_space)
        (root,) = trace_roots()
        assert root.name == "optimize"
        evaluate = root.find("evaluate_design")
        assert evaluate is not None
        assert evaluate.find("simulate_battery") is not None
        # The whole chain, from the global tracer's root search too.
        assert get_tracer().find("simulate_battery") is not None

    def test_span_durations_land_in_histograms(self, ut_context, tiny_space):
        _run_instrumented_sweep(ut_context, tiny_space)
        histograms = metrics_snapshot()["histograms"]
        for name in (
            "span.optimize.seconds",
            "span.evaluate_design.seconds",
            "span.simulate_battery.seconds",
        ):
            assert histograms[name]["count"] >= 1
            assert histograms[name]["sum"] >= 0.0

    def test_chunk_events_see_every_grid_point(self, ut_context, tiny_space):
        bus = SweepEvents()
        reset_tracing()
        reset_metrics()
        result = optimize(ut_context, tiny_space, Strategy.RENEWABLES_BATTERY, events=bus)
        chunks = [e.payload for e in bus.events() if e.kind == "chunk_completed"]
        done = 0
        cumulative = []
        for chunk in chunks:
            done += chunk["count"]
            cumulative.append(done)
        assert cumulative == list(range(1, result.n_evaluated + 1))
        started = [e.payload for e in bus.events() if e.kind == "sweep_started"]
        assert [p["total"] for p in started] == [result.n_evaluated]
        assert all(
            p["strategy"] == Strategy.RENEWABLES_BATTERY.value for p in chunks + started
        )


class TestCountersDeriveFromEvents:
    """The sweep counters are the bus's own tallies, whatever happens."""

    def test_pooled_fleet_counters_equal_event_tallies(
        self, ut_context, or_context, tmp_path
    ):
        space = DesignSpace(
            solar_mw=(0.0, 30.0),
            wind_mw=(0.0, 30.0),
            battery_mwh=(0.0, 50.0),
        )
        sites = [("UT", ut_context, space), ("OR", or_context, space)]
        base = tmp_path / "fleet.ckpt"
        # UT: every first attempt returns a corrupt payload (retries);
        # OR: its segment never attaches (quarantine, then its grant is
        # stolen by UT).
        faults = FleetFaultPlan(
            sites={
                "UT": SiteFaultPolicy(corrupt_rate=1.0),
                "OR": SiteFaultPolicy(shm_fault=True),
            },
            max_faulted_attempts=1,
        )
        bus = SweepEvents()
        reset_metrics()
        enable_metrics()
        strategy = Strategy.RENEWABLES_BATTERY
        sweep_fleet(
            sites, strategy, workers=2, faults=faults, checkpoint=base, events=bus
        )
        # Keep UT's first three chunks: the resume restores those, sweeps
        # the rest live, and restores OR whole.
        journal = tmp_path / "fleet.ckpt.ut"
        journal.write_text("".join(journal.read_text().splitlines(True)[:4]))
        sweep_fleet(
            sites, strategy, workers=2, checkpoint=base, resume=True, events=bus
        )
        sweep_fleet(sites, strategy, workers=2, deadline_s=1e-9, events=bus)

        events = bus.events()
        tally = bus.counts()
        for kind in (
            "chunk_retried",
            "capacity_stolen",
            "site_quarantined",
            "deadline_exceeded",
            "sweep_finished",
        ):
            assert tally.get(kind, 0) >= 1, kind
        chunks = [e.payload for e in events if e.kind == "chunk_completed"]
        resumed = [p for p in chunks if p.get("resumed")]
        assert resumed and len(resumed) < len(chunks)
        snapshot = metrics_snapshot()
        counters = snapshot["counters"]
        assert counters["chunk_retries"] == tally["chunk_retried"]
        assert counters["capacity_steals"] == tally["capacity_stolen"]
        assert counters["sites_quarantined"] == tally["site_quarantined"]
        assert counters["sweeps_completed"] == tally["sweep_finished"]
        assert counters["chunks_deadline_dropped"] == sum(
            e.payload["dropped_chunks"] for e in events if e.kind == "deadline_exceeded"
        )
        assert counters["checkpoint_chunks_skipped"] == len(resumed)
        assert counters["checkpoint_designs_skipped"] == sum(p["count"] for p in resumed)
        # Only the deadline sweep ran without a journal, and it committed
        # nothing: every live chunk was journaled.
        assert counters["checkpoint_chunks_written"] == len(chunks) - len(resumed)
        finished = [e.payload for e in events if e.kind == "sweep_finished"]
        assert snapshot["gauges"]["sweep_grid_points"] == finished[-1]["total"]
        assert snapshot["gauges"]["fleet_deadline_remaining_s"] == 0.0

    def test_optimize_logs_each_sweep_fact_once(self, ut_context, tiny_space, caplog):
        with caplog.at_level(logging.INFO, logger="repro"):
            optimize(ut_context, tiny_space, Strategy.RENEWABLES_BATTERY)
        lines = [
            (r.name, r.getMessage()) for r in caplog.records if r.name.startswith("repro.")
        ]
        assert [name for name, _ in lines] == [
            "repro.core.fleet",
            "repro.obs.events",
            "repro.core.fleet",
        ], lines
        start, finished, done = (message for _, message in lines)
        assert start.startswith("fleet sweep start:")
        assert finished.startswith("sweep_finished site=UT ")
        assert done.startswith("fleet sweep done")
