"""End-to-end check that the hot paths actually feed the collectors."""

import pytest

from repro.core.design import DesignSpace, Strategy
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
