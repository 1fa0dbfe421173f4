"""The metric-name registry and its runtime enforcement."""

import pytest

from repro.obs import (
    COUNTERS,
    GAUGES,
    MetricsRegistry,
    UnknownMetricError,
    check_metric,
    is_known_metric,
)


class TestRegistryContents:
    def test_core_pipeline_names_are_declared(self):
        assert "designs_evaluated" in COUNTERS
        assert "sweeps_completed" in COUNTERS
        assert "sweep_grid_points" in GAUGES

    def test_kinds_do_not_bleed_into_each_other(self):
        assert is_known_metric("counter", "designs_evaluated")
        assert not is_known_metric("gauge", "designs_evaluated")
        assert not is_known_metric("counter", "sweep_grid_points")

    def test_span_histograms_match_by_pattern(self):
        assert is_known_metric("histogram", "span.optimize.seconds")
        assert is_known_metric("histogram", "span.evaluate_design.seconds")
        assert not is_known_metric("histogram", "span.optimize")
        assert not is_known_metric("histogram", "evaluate.seconds")

    def test_unknown_kind_is_never_known(self):
        assert not is_known_metric("timer", "designs_evaluated")


class TestCheckMetric:
    def test_passes_silently_for_known_names(self):
        check_metric("counter", "designs_evaluated")

    def test_raises_typed_error_with_both_fields(self):
        with pytest.raises(UnknownMetricError) as excinfo:
            check_metric("counter", "designs_evaluted")
        assert excinfo.value.kind == "counter"
        assert excinfo.value.name == "designs_evaluted"
        assert "metric_names.py" in str(excinfo.value)

    def test_is_a_key_error(self):
        with pytest.raises(KeyError):
            check_metric("gauge", "nope")


class TestValidatingRegistry:
    def test_validating_registry_rejects_unknown_names(self):
        registry = MetricsRegistry(enabled=True, validate=True)
        with pytest.raises(UnknownMetricError):
            registry.inc("not_a_metric")  # repro-lint: disable=RL004 — deliberately unregistered; exercises the runtime registry guard
        with pytest.raises(UnknownMetricError):
            registry.set_gauge("not_a_metric", 1.0)  # repro-lint: disable=RL004 — deliberately unregistered; exercises the runtime registry guard
        with pytest.raises(UnknownMetricError):
            registry.observe("not_a_metric", 1.0)  # repro-lint: disable=RL004 — deliberately unregistered; exercises the runtime registry guard

    def test_validating_registry_accepts_declared_names(self):
        registry = MetricsRegistry(enabled=True, validate=True)
        registry.inc("designs_evaluated", 2)
        registry.set_gauge("sweep_grid_points", 9)
        registry.observe("span.optimize.seconds", 0.25)
        snap = registry.snapshot()
        assert snap["counters"]["designs_evaluated"] == 2
        assert snap["gauges"]["sweep_grid_points"] == 9.0

    def test_validation_only_at_creation_not_per_write(self):
        registry = MetricsRegistry(enabled=True, validate=True)
        registry.inc("designs_evaluated")
        registry.validate = False  # later writes hit the existing metric
        registry.inc("designs_evaluated")
        assert registry.counter_value("designs_evaluated") == 2

    def test_disabled_registry_never_validates(self):
        registry = MetricsRegistry(enabled=False, validate=True)
        registry.inc("would_explode_if_checked")  # repro-lint: disable=RL004 — deliberately unregistered; exercises the runtime registry guard
        assert registry.snapshot()["counters"] == {}

    def test_instances_default_to_unvalidated(self):
        registry = MetricsRegistry()
        registry.inc("scratch_counter")  # repro-lint: disable=RL004 — deliberately unregistered; exercises the runtime registry guard
        assert registry.counter_value("scratch_counter") == 1  # repro-lint: disable=RL004 — deliberately unregistered; exercises the runtime registry guard

    def test_default_registry_validates(self):
        from repro.obs import get_registry

        assert get_registry().validate is True
