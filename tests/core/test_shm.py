"""The shared-memory trace plane (:mod:`repro.core.shm`).

The contract under test: a context shipped through a shared segment is an
*implementation detail* — ``attach()`` rebuilds a bitwise-identical
:class:`SiteContext`, every sweep mode (shm, ``shm=False``, serial, spawn,
fault-injected, interrupted) produces the identical evaluation sequence,
and the segment lifecycle is deterministic: after any sweep exit — normal,
exception, ``SweepInterrupted``, killed workers — ``/dev/shm`` holds no
``repro_ctx_*`` segment.
"""

from __future__ import annotations

import pathlib
import pickle

import pytest

from repro.core import Strategy, optimize, sweep_fleet
from repro.core.design import DesignSpace
from repro.core.shm import (
    SEGMENT_PREFIX,
    SharedContextError,
    attach_context,
    share_context,
    shared_memory_available,
)
from repro.obs import (
    disable_metrics,
    enable_metrics,
    get_registry,
    reset_metrics,
)
from repro.resilience import FleetFaultPlan, SweepInterrupted

pytestmark = pytest.mark.skipif(
    not shared_memory_available(), reason="no multiprocessing.shared_memory"
)

_DEV_SHM = pathlib.Path("/dev/shm")


def _live_segments():
    """Names of this module's shared segments currently in /dev/shm."""
    if not _DEV_SHM.is_dir():  # pragma: no cover - non-Linux
        pytest.skip("/dev/shm not available on this platform")
    return sorted(p.name for p in _DEV_SHM.iterdir() if p.name.startswith(SEGMENT_PREFIX))


@pytest.fixture(scope="module")
def small_space() -> DesignSpace:
    return DesignSpace(
        solar_mw=(0.0, 30.0),
        wind_mw=(0.0, 30.0),
        battery_mwh=(0.0, 50.0),
        extra_capacity_fractions=(0.0,),
    )


@pytest.fixture()
def fresh_metrics():
    reset_metrics()
    enable_metrics()
    yield get_registry()
    disable_metrics()
    reset_metrics()


class TestHandleRoundTrip:
    def test_attach_is_bitwise_identical(self, ut_context):
        with share_context(ut_context) as shared:
            attached = attach_context(shared.handle)
            # Frozen-dataclass equality recurses into every HourlySeries
            # (np.array_equal) and scalar model — bitwise for the floats.
            assert attached == ut_context
            assert attached.demand.power.values.dtype == ut_context.demand.power.values.dtype

    def test_attached_series_are_zero_copy_views(self, ut_context):
        with share_context(ut_context) as shared:
            attached = shared.handle.attach()
            for series in (
                attached.demand.power,
                attached.grid_intensity,
                attached.grid.demand,
            ):
                assert not series.values.flags.owndata
                assert not series.values.flags.writeable

    def test_handle_pickles_under_1kb(self, ut_context):
        with share_context(ut_context) as shared:
            blob = pickle.dumps(shared.handle, protocol=pickle.HIGHEST_PROTOCOL)
            assert len(blob) < 1024
            clone = pickle.loads(blob)
            assert clone == shared.handle
            assert attach_context(clone) == ut_context

    def test_handle_is_tiny_next_to_the_context(self, ut_context):
        context_bytes = len(pickle.dumps(ut_context, protocol=pickle.HIGHEST_PROTOCOL))
        with share_context(ut_context) as shared:
            handle_bytes = len(
                pickle.dumps(shared.handle, protocol=pickle.HIGHEST_PROTOCOL)
            )
        assert handle_bytes * 100 < context_bytes

    def test_attach_after_unlink_raises_typed_error(self, ut_context):
        shared = share_context(ut_context)
        handle = shared.handle
        shared.unlink()
        with pytest.raises(SharedContextError, match="does not exist"):
            attach_context(handle)

    def test_unlink_is_idempotent(self, ut_context):
        shared = share_context(ut_context)
        shared.unlink()
        shared.unlink()
        assert _live_segments() == []

    def test_create_unlink_leaves_no_segment(self, ut_context):
        before = _live_segments()
        shared = share_context(ut_context)
        assert shared.handle.segment in _live_segments()
        shared.unlink()
        assert _live_segments() == before


class TestShmSweeps:
    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_shm_parallel_equals_serial_all_strategies(
        self, ut_context, small_space, strategy
    ):
        serial = optimize(ut_context, small_space, strategy)
        parallel = optimize(ut_context, small_space, strategy, workers=2)
        assert serial.evaluations == parallel.evaluations
        assert serial.best == parallel.best
        assert _live_segments() == []

    def test_no_shm_fallback_equals_serial(self, ut_context, small_space):
        serial = optimize(ut_context, small_space, Strategy.RENEWABLES_BATTERY)
        parallel = optimize(
            ut_context, small_space, Strategy.RENEWABLES_BATTERY, workers=2, shm=False
        )
        assert serial.evaluations == parallel.evaluations
        assert _live_segments() == []

    def test_spawn_start_method_works(
        self, ut_context, small_space, monkeypatch
    ):
        monkeypatch.setenv("REPRO_MP_START_METHOD", "spawn")
        serial = optimize(ut_context, small_space, Strategy.RENEWABLES_ONLY)
        parallel = optimize(
            ut_context, small_space, Strategy.RENEWABLES_ONLY, workers=2
        )
        assert serial.evaluations == parallel.evaluations
        assert _live_segments() == []

    def test_worker_kill_faults_leave_no_segment(
        self, ut_context, small_space
    ):
        serial = optimize(ut_context, small_space, Strategy.RENEWABLES_BATTERY)
        result = optimize(
            ut_context,
            small_space,
            Strategy.RENEWABLES_BATTERY,
            workers=2,
            faults=FleetFaultPlan.from_spec("kill=0;corrupt=1"),
        )
        assert result.evaluations == serial.evaluations
        assert _live_segments() == []

    def test_interrupt_unlinks_segment(
        self, ut_context, small_space, tmp_path, interrupting_bus
    ):
        with pytest.raises(SweepInterrupted):
            optimize(
                ut_context,
                small_space,
                Strategy.RENEWABLES_BATTERY,
                workers=2,
                events=interrupting_bus(2),
                checkpoint=tmp_path / "sweep.ckpt",
            )
        assert _live_segments() == []

    def test_metrics_record_the_trace_plane(
        self, ut_context, or_context, small_space, fresh_metrics
    ):
        optimize(ut_context, small_space, Strategy.RENEWABLES_BATTERY, workers=2)
        registry = fresh_metrics
        assert registry.counter_value("shm_bytes_shared") > 100_000
        assert registry.counter_value("context_attach_count") >= 1
        snapshot = registry.snapshot()
        assert 0 < snapshot["gauges"]["context_pickle_bytes"] < 1024
        # A pooled fleet reports its largest site payload.
        reset_metrics()
        sweep_fleet(
            [("UT", ut_context, small_space), ("OR", or_context, small_space)],
            Strategy.RENEWABLES_BATTERY,
            workers=2,
        )
        assert 0 < registry.snapshot()["gauges"]["context_pickle_bytes"] < 1024

    def test_no_shm_pickle_bytes_are_full_context(
        self, ut_context, or_context, small_space, fresh_metrics
    ):
        optimize(
            ut_context, small_space, Strategy.RENEWABLES_BATTERY, workers=2, shm=False
        )
        snapshot = fresh_metrics.snapshot()
        assert snapshot["gauges"]["context_pickle_bytes"] > 100_000
        assert fresh_metrics.counter_value("shm_bytes_shared") == 0
        reset_metrics()
        sweep_fleet(
            [("UT", ut_context, small_space), ("OR", or_context, small_space)],
            Strategy.RENEWABLES_BATTERY,
            workers=2,
            shm=False,
        )
        assert fresh_metrics.snapshot()["gauges"]["context_pickle_bytes"] > 100_000
        assert fresh_metrics.counter_value("shm_bytes_shared") == 0

    def test_resumed_sweep_with_shm_matches_uninterrupted(
        self, ut_context, small_space, tmp_path, interrupting_bus
    ):
        checkpoint = tmp_path / "resume.ckpt"
        serial = optimize(ut_context, small_space, Strategy.RENEWABLES_BATTERY)
        with pytest.raises(SweepInterrupted):
            optimize(
                ut_context,
                small_space,
                Strategy.RENEWABLES_BATTERY,
                workers=2,
                events=interrupting_bus(2),
                checkpoint=checkpoint,
            )
        resumed = optimize(
            ut_context,
            small_space,
            Strategy.RENEWABLES_BATTERY,
            workers=2,
            checkpoint=checkpoint,
            resume=True,
        )
        assert resumed.evaluations == serial.evaluations
        assert _live_segments() == []


class TestShmErrors:
    def test_shm_false_never_creates_segments(self, ut_context, small_space):
        before = _live_segments()
        optimize(
            ut_context, small_space, Strategy.RENEWABLES_ONLY, workers=2, shm=False
        )
        assert _live_segments() == before

    def test_serial_sweep_never_creates_segments(self, ut_context, small_space):
        before = _live_segments()
        optimize(ut_context, small_space, Strategy.RENEWABLES_ONLY)
        assert _live_segments() == before
