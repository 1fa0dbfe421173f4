"""Fleet sweep scheduler: fault domains, deadlines, streaming (chaos soak).

The contract under test: :func:`repro.core.sweep_fleet` schedules every
site over one shared pool, and however a site is sabotaged — unattachable
shm segments, killed workers, corrupt payloads, slow chunks — *only that
site's fault domain degrades*.  Every site that completes (including
quarantined sites drained serially) must be bitwise-identical to a
fault-free serial :func:`optimize` of the same site, the streamed
``frontier_updated`` events must reconstruct the final per-site
frontiers, and ``/dev/shm`` must hold no ``repro_ctx_*`` segments after
any outcome.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.core import (
    FleetInterrupted,
    SiteStatus,
    Strategy,
    build_site_context,
    fleet_checkpoint_path,
    optimize,
    shared_memory_available,
    sweep_fleet,
)
from repro.core.design import DesignSpace
from repro.core.shm import SEGMENT_PREFIX
from repro.datacenter import SITE_ORDER
from repro.obs import SweepEvents, disable_metrics, enable_metrics, get_registry, reset_metrics
from repro.resilience import FleetFaultPlan, SiteFaultPolicy

STRATEGY = Strategy.RENEWABLES_BATTERY

_DEV_SHM = pathlib.Path("/dev/shm")

pytestmark = pytest.mark.skipif(
    not shared_memory_available(), reason="no multiprocessing.shared_memory"
)


def _live_segments():
    if not _DEV_SHM.is_dir():  # pragma: no cover - non-Linux
        pytest.skip("/dev/shm not available on this platform")
    return sorted(
        p.name for p in _DEV_SHM.iterdir() if p.name.startswith(SEGMENT_PREFIX)
    )


def _small_space(context) -> DesignSpace:
    """A tiny per-site grid honoring the region's resource support."""
    return DesignSpace(
        solar_mw=(0.0, 30.0) if context.supports_solar else (0.0,),
        wind_mw=(0.0, 30.0) if context.supports_wind else (0.0,),
        battery_mwh=(0.0, 50.0),
        extra_capacity_fractions=(0.0,),
    )


@pytest.fixture(scope="module")
def fleet_sites():
    """All thirteen Table-1 sites over small per-site grids."""
    sites = []
    for state in SITE_ORDER:
        context = build_site_context(state)
        sites.append((state, context, _small_space(context)))
    return sites


@pytest.fixture(scope="module")
def trio_sites(fleet_sites):
    """A three-site subset for the slower (spawn, kill-heavy) scenarios."""
    return fleet_sites[:3]


@pytest.fixture(scope="module")
def oracle(fleet_sites):
    """Fault-free serial per-site ground truth, bitwise."""
    return {
        key: optimize(context, space, STRATEGY)
        for key, context, space in fleet_sites
    }


@pytest.fixture()
def fresh_metrics():
    reset_metrics()
    enable_metrics()
    yield get_registry()
    disable_metrics()
    reset_metrics()


def _assert_bitwise(result, oracle, sites):
    for key in sites:
        sweep = result.site(key)
        assert sweep.result is not None, (key, sweep.status, sweep.error)
        assert sweep.result.evaluations == oracle[key].evaluations, key
        assert sweep.result.best == oracle[key].best, key


class TestSerialFleet:
    def test_matches_per_site_optimize_bitwise(self, fleet_sites, oracle):
        result = sweep_fleet(fleet_sites, STRATEGY, workers=1)
        assert result.complete
        assert all(s.status is SiteStatus.COMPLETE for s in result.sites)
        _assert_bitwise(result, oracle, [k for k, _, _ in fleet_sites])
        assert result.statuses() == {k: "complete" for k, _, _ in fleet_sites}

    def test_sites_are_interleaved_not_sequential(self, trio_sites):
        bus = SweepEvents()
        sweep_fleet(trio_sites, STRATEGY, workers=1, events=bus)
        completions = [
            e.payload["site"] for e in bus.events() if e.kind == "chunk_completed"
        ]
        # Round-robin dispatch: the first chunk of every site commits
        # before the second chunk of any site.
        n = len(trio_sites)
        assert len(set(completions[:n])) == n

    def test_argument_validation(self, trio_sites):
        with pytest.raises(ValueError, match="at least one site"):
            sweep_fleet([], STRATEGY)
        with pytest.raises(ValueError, match="duplicate"):
            sweep_fleet([trio_sites[0], trio_sites[0]], STRATEGY)
        with pytest.raises(ValueError, match="workers"):
            sweep_fleet(trio_sites, STRATEGY, workers=0)
        with pytest.raises(ValueError, match="deadline_s"):
            sweep_fleet(trio_sites, STRATEGY, deadline_s=0.0)
        with pytest.raises(ValueError, match="resume"):
            sweep_fleet(trio_sites, STRATEGY, resume=True)
        with pytest.raises(ValueError, match="max_retries"):
            sweep_fleet(trio_sites, STRATEGY, max_retries=-1)
        with pytest.raises(ValueError, match="chunk_timeout"):
            sweep_fleet(trio_sites, STRATEGY, chunk_timeout=0.0)

    @pytest.mark.parametrize("spec", ["ZZ:kill", "ut:kill"])
    def test_fault_plan_sites_must_be_in_the_sweep(self, trio_sites, spec):
        """A typo'd or lowercase site key would inject nothing; it is
        rejected before the sweep starts, naming both key sets."""
        faults = FleetFaultPlan.from_spec(spec)
        with pytest.raises(ValueError, match="not in this sweep") as error:
            sweep_fleet(trio_sites, STRATEGY, faults=faults)
        message = str(error.value)
        assert repr(spec.partition(":")[0]) in message
        assert all(repr(key) in message for key, _, _ in trio_sites)


class TestPooledFleet:
    def test_pooled_matches_serial_bitwise(self, fleet_sites, oracle):
        result = sweep_fleet(fleet_sites, STRATEGY, workers=3)
        assert result.complete
        _assert_bitwise(result, oracle, [k for k, _, _ in fleet_sites])
        assert _live_segments() == []

    def test_pickled_context_fallback_matches(self, trio_sites, oracle):
        result = sweep_fleet(trio_sites, STRATEGY, workers=2, shm=False)
        assert result.complete
        _assert_bitwise(result, oracle, [k for k, _, _ in trio_sites])


class TestChaosSoak:
    """Seeded site-scoped faults over the full 13-site fleet."""

    def test_shm_faulted_sites_quarantine_healthy_sites_unharmed(
        self, fleet_sites, oracle, fresh_metrics
    ):
        faulted = {"OR", "NC"}
        plan = FleetFaultPlan(
            sites={site: SiteFaultPolicy(shm_fault=True) for site in faulted},
            seed=11,
        )
        bus = SweepEvents()
        result = sweep_fleet(
            fleet_sites, STRATEGY, workers=3, faults=plan, events=bus
        )
        # Only the faulted fault domains degrade; shm faults are
        # deterministic (first chunk of the site quarantines it) so the
        # healthy sites' statuses are exact, not just their results.
        for key, _, _ in fleet_sites:
            sweep = result.site(key)
            if key in faulted:
                assert sweep.status is SiteStatus.DEGRADED
                assert sweep.quarantined
            else:
                assert sweep.status is SiteStatus.COMPLETE, (key, sweep.error)
                assert not sweep.quarantined
        # Quarantined-but-drained sites are still bitwise-correct.
        _assert_bitwise(result, oracle, [k for k, _, _ in fleet_sites])
        assert fresh_metrics.counter_value("sites_quarantined") == len(faulted)
        quarantines = [
            e.payload["site"] for e in bus.events() if e.kind == "site_quarantined"
        ]
        assert sorted(quarantines) == sorted(faulted)
        assert _live_segments() == []

    def test_killed_workers_never_corrupt_results(self, trio_sites, oracle):
        key = trio_sites[0][0]
        plan = FleetFaultPlan(
            sites={key: SiteFaultPolicy(kill_rate=1.0)},
            seed=5,
            max_faulted_attempts=1,
        )
        result = sweep_fleet(trio_sites, STRATEGY, workers=2, faults=plan)
        # A killed worker breaks the shared pool, so innocent in-flight
        # chunks of healthy sites may burn attempts too — statuses are
        # timing-dependent, but every site must complete and match the
        # fault-free oracle bitwise.
        _assert_bitwise(result, oracle, [k for k, _, _ in trio_sites])
        assert _live_segments() == []

    def test_corrupt_payloads_are_caught_and_retried(self, trio_sites, oracle):
        key = trio_sites[1][0]
        plan = FleetFaultPlan(
            sites={key: SiteFaultPolicy(corrupt_rate=1.0)},
            seed=9,
            max_faulted_attempts=1,
        )
        result = sweep_fleet(trio_sites, STRATEGY, workers=2, faults=plan)
        _assert_bitwise(result, oracle, [k for k, _, _ in trio_sites])

    def test_spawn_start_method(self, trio_sites, oracle, monkeypatch):
        monkeypatch.setenv("REPRO_MP_START_METHOD", "spawn")
        key = trio_sites[0][0]
        plan = FleetFaultPlan(sites={key: SiteFaultPolicy(shm_fault=True)})
        result = sweep_fleet(trio_sites, STRATEGY, workers=2, faults=plan)
        assert result.site(key).status is SiteStatus.DEGRADED
        for k, _, _ in trio_sites[1:]:
            assert result.site(k).status is SiteStatus.COMPLETE
        _assert_bitwise(result, oracle, [k for k, _, _ in trio_sites])
        assert _live_segments() == []


class TestStreaming:
    def test_frontier_events_reconstruct_final_frontiers(
        self, fleet_sites, oracle
    ):
        bus = SweepEvents()
        live = []
        bus.subscribe(
            lambda e: live.append(e) if e.kind == "frontier_updated" else None
        )
        result = sweep_fleet(fleet_sites, STRATEGY, workers=2, events=bus)
        for key, _, _ in fleet_sites:
            tons = [
                e.payload["total_tons"]
                for e in live
                if e.payload["site"] == key
            ]
            # Strictly improving, and the last improvement IS the final
            # best — the stream alone reconstructs the per-site frontier.
            assert tons == sorted(tons, reverse=True)
            assert len(set(tons)) == len(tons)
            assert tons[-1] == result.site(key).result.best.total_tons
            assert tons[-1] == oracle[key].best.total_tons

    def test_every_site_reaches_a_terminal_event(self, trio_sites):
        bus = SweepEvents()
        plan = FleetFaultPlan(
            sites={trio_sites[0][0]: SiteFaultPolicy(shm_fault=True)}
        )
        sweep_fleet(trio_sites, STRATEGY, workers=2, faults=plan, events=bus)
        finished = {
            e.payload["site"]: e.payload["status"]
            for e in bus.events()
            if e.kind == "sweep_finished"
        }
        assert set(finished) == {k for k, _, _ in trio_sites}
        assert finished[trio_sites[0][0]] == "degraded"


class TestDeadline:
    def test_deadline_returns_partial_fleet(self, fleet_sites, fresh_metrics):
        bus = SweepEvents()
        result = sweep_fleet(
            fleet_sites, STRATEGY, workers=1, deadline_s=1e-4, events=bus
        )
        statuses = set(result.statuses().values())
        assert statuses == {"deadline_exceeded"}
        assert not result.complete
        assert [e for e in bus.events() if e.kind == "deadline_exceeded"]
        assert fresh_metrics.counter_value("chunks_deadline_dropped") > 0
        for sweep in result.sites:
            assert sweep.result is None
            assert sweep.completed == len(sweep.evaluations) < sweep.total

    def test_generous_deadline_changes_nothing(self, trio_sites, oracle):
        result = sweep_fleet(trio_sites, STRATEGY, workers=1, deadline_s=600.0)
        assert result.complete
        _assert_bitwise(result, oracle, [k for k, _, _ in trio_sites])


class TestInterruptAndResume:
    def test_interrupt_carries_completed_sites_and_resumes(
        self, trio_sites, oracle, tmp_path
    ):
        base = tmp_path / "fleet.ckpt"
        bus = SweepEvents()
        finished = []

        def interrupt_after_first_site(event):
            # The first live chunk committed after a site finished.
            if event.kind == "sweep_finished":
                finished.append(event.payload["site"])
            elif event.kind == "chunk_completed" and finished:
                raise KeyboardInterrupt

        bus.subscribe(interrupt_after_first_site)
        with pytest.raises(FleetInterrupted) as excinfo:
            sweep_fleet(
                trio_sites,
                STRATEGY,
                workers=1,
                checkpoint=base,
                events=bus,
            )
        interrupted = excinfo.value
        assert [s.site for s in interrupted.completed] == finished
        assert interrupted.pending
        assert set(interrupted.pending).isdisjoint(s.site for s in interrupted.completed)
        assert interrupted.checkpoint == str(base)
        # The interrupting chunk was committed too: done counts past the
        # finished sites into the one that was cut.
        assert interrupted.done > sum(sweep.total for sweep in interrupted.completed)
        for sweep in interrupted.completed:
            assert sweep.result.evaluations == oracle[sweep.site].evaluations

        resumed = sweep_fleet(
            trio_sites, STRATEGY, workers=1, checkpoint=base, resume=True
        )
        assert resumed.complete
        _assert_bitwise(resumed, oracle, [k for k, _, _ in trio_sites])
        assert _live_segments() == []

    def test_fleet_journals_resume_under_plain_optimize(
        self, trio_sites, oracle, tmp_path
    ):
        base = tmp_path / "interop.ckpt"
        sweep_fleet(trio_sites, STRATEGY, workers=2, checkpoint=base)
        for key, context, space in trio_sites:
            path = fleet_checkpoint_path(base, key)
            result = optimize(
                context, space, STRATEGY, checkpoint=path, resume=True
            )
            assert result.evaluations == oracle[key].evaluations

    def test_optimize_journals_resume_under_the_fleet(
        self, trio_sites, oracle, tmp_path
    ):
        base = tmp_path / "interop2.ckpt"
        key, context, space = trio_sites[0]
        optimize(
            context, space, STRATEGY, checkpoint=fleet_checkpoint_path(base, key)
        )
        result = sweep_fleet(
            trio_sites, STRATEGY, workers=1, checkpoint=base, resume=True
        )
        assert result.complete
        _assert_bitwise(result, oracle, [k for k, _, _ in trio_sites])
