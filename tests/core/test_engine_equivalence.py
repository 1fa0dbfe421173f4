"""Equivalence suite for the unified sweep engine.

Both public entry points are thin policy wrappers over
:class:`repro.core.engine.SweepEngine`; this suite pins the refactor to
three independent oracles, all *bitwise* (frozen-dataclass ``==`` on
``DesignEvaluation`` compares every float exactly):

1. **Pre-refactor golden journals** — ``tests/fixtures/golden_journals/``
   holds checkpoint journals written by the code *before* the engine
   extraction (one per strategy, Utah site, serial workers).  A fresh
   checkpointed sweep must reproduce them byte-for-byte, and resuming
   from them — whole or truncated mid-sweep — must restore bitwise.
2. **Cross-entry-point** — ``optimize()``, a hand-driven single-site
   ``SweepEngine``, and a one-site ``sweep_fleet()`` must agree, across
   strategies, worker counts, start methods, and batch sizes.
3. **Chaos** — a skewed fleet (one grid ~6× the others) under kill
   faults, with work stealing (always on in pooled sweeps), stays
   bitwise per site; stealing moves pool *capacity*, never results.
"""

from __future__ import annotations

import shutil

import pytest

from repro.core import Strategy, SweepEngine, optimize, sweep_fleet
from repro.core.design import DesignSpace
from repro.core.evaluate import evaluate_design
from repro.obs import SweepEvents
from repro.resilience import FleetFaultPlan
from repro.resilience.domains import SiteFaultPolicy

FIXTURES = "tests/fixtures/golden_journals"

#: The exact space the golden journals were generated with.
GOLDEN_SPACE = DesignSpace(
    solar_mw=(0.0, 30.0),
    wind_mw=(0.0, 30.0),
    battery_mwh=(0.0, 50.0),
    extra_capacity_fractions=(0.0,),
)

#: A ~6× grid for the skewed-fleet chaos tests.
BIG_SPACE = DesignSpace(
    solar_mw=(0.0, 10.0, 20.0, 30.0),
    wind_mw=(0.0, 10.0, 20.0, 30.0),
    battery_mwh=(0.0, 25.0, 50.0),
    extra_capacity_fractions=(0.0,),
)


def golden_path(strategy: Strategy) -> str:
    return f"{FIXTURES}/ut.{strategy.name.lower()}.ckpt"


def narrate(entry_point, total, **kwargs):
    """Run one sweep; return its ``(kind, payload)`` events.

    The ``chunk_completed`` counts must sum to the grid size ``total``.
    """
    bus = SweepEvents()
    entry_point(events=bus, **kwargs)
    events = [(event.kind, event.payload) for event in bus.events()]
    assert sum(p["count"] for kind, p in events if kind == "chunk_completed") == total
    return events


def run_engine_single_site(context, space, strategy, **kwargs):
    """Drive a one-site SweepEngine by hand, as optimize() does."""
    engine = SweepEngine([("UT", context, space)], strategy, **kwargs)
    try:
        engine.setup()
        engine.dispatch()
    finally:
        engine.cleanup()
    return engine.states[0].partial_evaluations()


class TestGoldenJournals:
    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_fresh_sweep_reproduces_golden_journal_bytes(
        self, tmp_path, ut_context, strategy
    ):
        """The engine's journal output is byte-identical to the journals
        the pre-refactor scheduler wrote (fingerprint, chunking, floats)."""
        path = tmp_path / "sweep.ckpt"
        optimize(ut_context, GOLDEN_SPACE, strategy, checkpoint=path)
        with open(golden_path(strategy), "rb") as fh:
            golden = fh.read()
        assert path.read_bytes() == golden

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_resume_from_golden_journal_is_bitwise(
        self, tmp_path, ut_context, strategy
    ):
        """A complete pre-refactor journal restores into the engine and
        yields the same evaluations as a fresh sweep."""
        path = tmp_path / "sweep.ckpt"
        shutil.copyfile(golden_path(strategy), path)
        resumed = optimize(
            ut_context, GOLDEN_SPACE, strategy, checkpoint=path, resume=True
        )
        fresh = optimize(ut_context, GOLDEN_SPACE, strategy)
        assert resumed.evaluations == fresh.evaluations
        assert resumed.best == fresh.best

    def test_resume_from_truncated_golden_journal(self, tmp_path, ut_context):
        """Dropping the golden journal's last chunk record simulates an
        interrupt mid-sweep under the old scheduler; the engine must
        restore the prefix and re-evaluate only the rest, bitwise."""
        strategy = Strategy.RENEWABLES_BATTERY
        with open(golden_path(strategy), "rb") as fh:
            lines = fh.read().splitlines(keepends=True)
        assert len(lines) > 2, "need at least a header and two chunks"
        path = tmp_path / "sweep.ckpt"
        path.write_bytes(b"".join(lines[:-1]))
        resumed = optimize(
            ut_context, GOLDEN_SPACE, strategy, checkpoint=path, resume=True
        )
        fresh = optimize(ut_context, GOLDEN_SPACE, strategy)
        assert resumed.evaluations == fresh.evaluations


class TestCrossEntryPoint:
    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_optimize_equals_hand_driven_engine(self, ut_context, strategy):
        direct = run_engine_single_site(ut_context, GOLDEN_SPACE, strategy)
        wrapped = optimize(ut_context, GOLDEN_SPACE, strategy)
        assert wrapped.evaluations == direct

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_one_site_fleet_equals_optimize(self, ut_context, strategy):
        fleet = sweep_fleet([("UT", ut_context, GOLDEN_SPACE)], strategy)
        single = optimize(ut_context, GOLDEN_SPACE, strategy)
        sweep = fleet.site("UT")
        assert sweep.status.value == "complete"
        assert sweep.evaluations == single.evaluations
        assert sweep.best == single.best

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_pooled_engine_matches_serial_both_start_methods(
        self, ut_context, monkeypatch, start_method
    ):
        monkeypatch.setenv("REPRO_MP_START_METHOD", start_method)
        serial = optimize(ut_context, GOLDEN_SPACE, Strategy.RENEWABLES_BATTERY)
        pooled = optimize(
            ut_context,
            GOLDEN_SPACE,
            Strategy.RENEWABLES_BATTERY,
            workers=2,
            batch_size=2,
        )
        assert pooled.evaluations == serial.evaluations

    @pytest.mark.parametrize("batch_size", [1, 3, 8])
    def test_batch_sizes_are_invisible_across_entry_points(
        self, ut_context, batch_size
    ):
        single = optimize(
            ut_context,
            GOLDEN_SPACE,
            Strategy.RENEWABLES_BATTERY_CAS,
            batch_size=batch_size,
        )
        fleet = sweep_fleet(
            [("UT", ut_context, GOLDEN_SPACE)],
            Strategy.RENEWABLES_BATTERY_CAS,
            batch_size=batch_size,
        )
        reference = tuple(
            evaluate_design(ut_context, design, Strategy.RENEWABLES_BATTERY_CAS)
            for design in GOLDEN_SPACE.points(Strategy.RENEWABLES_BATTERY_CAS)
        )
        assert single.evaluations == reference
        assert fleet.site("UT").evaluations == reference

    @pytest.mark.parametrize(
        "config",
        [{}, {"batch_size": 4}, {"workers": 2}],
        ids=["per-design", "batched", "pooled"],
    )
    def test_optimize_narrates_exactly_like_a_one_site_fleet(
        self, ut_context, config
    ):
        """optimize() is a one-site fleet: same events."""
        strategy = Strategy.RENEWABLES_BATTERY
        total = GOLDEN_SPACE.size(strategy)
        single_events = narrate(
            lambda **kw: optimize(ut_context, GOLDEN_SPACE, strategy, **kw),
            total,
            **config,
        )
        fleet_events = narrate(
            lambda **kw: sweep_fleet(
                [("UT", ut_context, GOLDEN_SPACE)], strategy, **kw
            ),
            total,
            **config,
        )
        if "workers" not in config:
            assert single_events == fleet_events
            return
        # Pooled chunks commit in completion order, which varies run to
        # run, and so does how often the running best improves: compare
        # the bracketing events exactly and the committed chunks as a set.
        assert single_events[0] == fleet_events[0]
        assert single_events[-1] == fleet_events[-1]

        def chunks(events):
            return sorted(
                (payload["start"], payload["count"])
                for kind, payload in events
                if kind == "chunk_completed"
            )

        assert chunks(single_events) == chunks(fleet_events)

    def test_faulted_sweep_is_bitwise_after_retries(self, ut_context):
        """Kill faults poison the pool; retried chunks must re-commit the
        exact same floats the fault-free run produces."""
        faults = FleetFaultPlan.from_spec("kill=0")
        clean = optimize(
            ut_context, GOLDEN_SPACE, Strategy.RENEWABLES_BATTERY, workers=2
        )
        faulted = optimize(
            ut_context,
            GOLDEN_SPACE,
            Strategy.RENEWABLES_BATTERY,
            workers=2,
            faults=faults,
        )
        assert faulted.evaluations == clean.evaluations


class TestWorkStealingChaos:
    @pytest.fixture(scope="class")
    def references(self, ut_context, or_context):
        """Per-site serial oracles for the skewed fleet."""
        return {
            "UT": optimize(ut_context, BIG_SPACE, Strategy.RENEWABLES_BATTERY),
            "OR": optimize(or_context, GOLDEN_SPACE, Strategy.RENEWABLES_BATTERY),
        }

    def test_skewed_fleet_with_kill_faults_stays_bitwise(
        self, ut_context, or_context, references
    ):
        """One ~6× grid plus kill faults on it: the small site drains
        first and re-grants its slots to the big one; every site's
        results equal its serial sweep."""
        faults = FleetFaultPlan(
            sites={"UT": SiteFaultPolicy(kill_rate=0.5)}, seed=7
        )
        fleet = sweep_fleet(
            [("UT", ut_context, BIG_SPACE), ("OR", or_context, GOLDEN_SPACE)],
            Strategy.RENEWABLES_BATTERY,
            workers=2,
            faults=faults,
        )
        # Collateral pool-break failures can exhaust a chunk's retries and
        # quarantine the faulted site (DEGRADED, drained serially); either
        # way every site must produce its full, bitwise result.
        assert len(fleet.finished) == 2
        for key in ("UT", "OR"):
            sweep = fleet.site(key)
            assert sweep.evaluations == references[key].evaluations
            assert sweep.best == references[key].best

    def test_steal_transfers_whole_grant_to_largest_grid(
        self, ut_context, or_context
    ):
        """Unit-level steal protocol: a drained site's grant moves whole
        to the site with the most uncommitted points, exactly once, and
        the transfer is narrated on the events bus."""
        from repro.obs import SweepEvents

        bus = SweepEvents()
        engine = SweepEngine(
            [("UT", ut_context, BIG_SPACE), ("OR", or_context, GOLDEN_SPACE)],
            Strategy.RENEWABLES_BATTERY,
            workers=2,
            events=bus,
        )
        try:
            engine.setup()
            grants = engine._fair_grants(4)
            assert grants == {"UT": 2, "OR": 2}
            inflight = {"UT": 0, "OR": 0}
            # Drain OR: empty queue, nothing in flight -> its grant moves.
            engine._by_key["OR"].queue.clear()
            engine._steal_capacity(grants, inflight)
            assert grants == {"UT": 4, "OR": 0}
            # Idempotent: a second pass finds no grant left to move.
            engine._steal_capacity(grants, inflight)
            assert grants == {"UT": 4, "OR": 0}
            stolen = [e for e in bus.events() if e.kind == "capacity_stolen"]
            assert len(stolen) == 1
            assert stolen[0].payload["from_site"] == "OR"
            assert stolen[0].payload["to_site"] == "UT"
            assert stolen[0].payload["slots"] == 2
        finally:
            engine.cleanup()

    def test_in_flight_site_keeps_its_grant(self, ut_context, or_context):
        """A drained site with work still in flight is not stolen from —
        its chunks may fail and requeue."""
        engine = SweepEngine(
            [("UT", ut_context, BIG_SPACE), ("OR", or_context, GOLDEN_SPACE)],
            Strategy.RENEWABLES_BATTERY,
            workers=2,
        )
        try:
            engine.setup()
            grants = engine._fair_grants(4)
            inflight = {"UT": 0, "OR": 1}
            engine._by_key["OR"].queue.clear()
            engine._steal_capacity(grants, inflight)
            assert grants == {"UT": 2, "OR": 2}
        finally:
            engine.cleanup()
