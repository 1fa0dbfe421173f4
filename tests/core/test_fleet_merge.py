"""Merged serial rounds: one combined kernel call per fleet round.

A serial batched ``sweep_fleet`` takes the next chunk of every site as one
round and hands the round to :func:`evaluate_block_sites`, which merges
combined-strategy chunks into one kernel call once the round reaches the
batch floor.  Merging is an evaluation detail only: every evaluation must
equal the per-design oracle bit for bit, every site journal must equal a
one-site sweep's byte for byte, and the ``chunk_completed`` stream must
follow the chunk-at-a-time round-robin order.  Fleets mixing leap and
non-leap years merge only rows of one hour count.
"""

from __future__ import annotations

import pytest

from repro.core import (
    SiteStatus,
    Strategy,
    SweepEngine,
    build_site_context,
    fleet_checkpoint_path,
    optimize,
    sweep_fleet,
)
from repro.core import engine as engine_module
from repro.core.design import default_design_space
from repro.core.engine import sweep_chunk_size
from repro.core.evaluate import evaluate_block_sites, evaluate_design
from repro.obs import SweepEvents, disable_metrics, enable_metrics, get_registry, reset_metrics

STRATEGY = Strategy.RENEWABLES_BATTERY_CAS

#: The Fig. 15 / ``repro rank`` axes: 160 combined rows at NE and UT, 40 at
#: solar-only AL, so a 512-row round merges all three sites and a 64-row
#: round merges only the first lap.
FIG15_AXES = dict(
    n_renewable_steps=4,
    battery_hours=(0.0, 2.0, 5.0, 10.0, 16.0),
    extra_capacity_fractions=(0.0, 0.5),
)


def _fig15_site(state, year=2020):
    context = build_site_context(state, year=year)
    space = default_design_space(
        float(context.demand.power.values.mean()),
        context.supports_solar,
        context.supports_wind,
        **FIG15_AXES,
    )
    return state, context, space


@pytest.fixture(autouse=True)
def default_floors(monkeypatch):
    monkeypatch.delenv("REPRO_BATCH_MIN_ROWS", raising=False)


@pytest.fixture(scope="module")
def sites():
    return [_fig15_site(state) for state in ("NE", "AL", "UT")]


@pytest.fixture(scope="module")
def oracle(sites):
    """Per-design evaluations per site (no batching anywhere)."""
    return {
        key: [evaluate_design(context, d, STRATEGY) for d in space.points(STRATEGY)]
        for key, context, space in sites
    }


@pytest.fixture()
def counters():
    reset_metrics()
    enable_metrics()
    yield get_registry()
    disable_metrics()
    reset_metrics()


@pytest.fixture()
def merge_calls(monkeypatch):
    """Record every round the engine hands to ``evaluate_block_sites``."""
    calls = []

    def spy(blocks, strategy, **kwargs):
        blocks = list(blocks)
        calls.append([len(designs) for _, designs in blocks])
        return evaluate_block_sites(blocks, strategy, **kwargs)

    monkeypatch.setattr(engine_module, "evaluate_block_sites", spy)
    return calls


def _round_robin_starts(sites, batch_size):
    """The chunk-at-a-time dispatch order: one chunk per site per lap."""
    queues = []
    for key, _, space in sites:
        total = len(list(space.points(STRATEGY)))
        size = sweep_chunk_size(total, batch_size)
        queues.append([(key, start) for start in range(0, total, size)])
    order = []
    while any(queues):
        for queue in queues:
            if queue:
                order.append(queue.pop(0))
    return order


@pytest.mark.parametrize(
    "batch_size, merged_rows",
    # 512: one round of 160 + 40 + 160 rows.  64: the first lap merges
    # 64 + 40 + 64 rows; the later 64 + 64 and 32 + 32 laps stay under
    # the 160-row floor and run per design.
    [(512, 360), (64, 168)],
)
def test_merged_fleet_sweep_equals_per_site_runs(
    sites, oracle, tmp_path, counters, merge_calls, batch_size, merged_rows
):
    bus = SweepEvents()
    fleet_base = tmp_path / "fleet.jsonl"
    result = sweep_fleet(
        sites, STRATEGY, batch_size=batch_size, checkpoint=fleet_base, events=bus
    )
    assert result.complete
    assert merge_calls, "no round reached evaluate_block_sites"
    assert counters.counter_value("designs_batched") == merged_rows
    for key, _, _ in sites:
        assert list(result.site(key).result.evaluations) == oracle[key], key
    completed = [
        (e.payload["site"], e.payload["start"])
        for e in bus.events()
        if e.kind == "chunk_completed"
    ]
    assert completed == _round_robin_starts(sites, batch_size)

    merge_calls.clear()
    for site in sites:
        key = site[0]
        one_base = tmp_path / f"one-{key}.jsonl"
        alone = sweep_fleet(
            [site], STRATEGY, batch_size=batch_size, checkpoint=one_base
        )
        assert list(alone.site(key).result.evaluations) == oracle[key], key
        fleet_bytes = open(fleet_checkpoint_path(fleet_base, key), "rb").read()
        one_bytes = open(fleet_checkpoint_path(one_base, key), "rb").read()
        assert fleet_bytes == one_bytes, key
    # A one-site sweep has one-chunk rounds only.
    assert merge_calls == []


def test_zero_deadline_drops_every_chunk(sites, counters, merge_calls):
    bus = SweepEvents()
    engine = SweepEngine(sites, STRATEGY, deadline_s=0.0, batch_size=512, events=bus)
    try:
        engine.setup()
        engine.dispatch()
    finally:
        engine.cleanup()
    assert merge_calls == []
    assert [e for e in bus.events() if e.kind == "chunk_completed"] == []
    assert all(s.status is SiteStatus.DEADLINE_EXCEEDED for s in engine.states)
    assert counters.counter_value("chunks_deadline_dropped") == sum(
        state.n_chunks for state in engine.states
    )


class TestMixedYears:
    """A fleet mixing leap (8784 h) and non-leap (8760 h) years."""

    @pytest.fixture(scope="class")
    def mixed_sites(self):
        return [
            _fig15_site("NE", 2020),
            _fig15_site("AL", 2021),
            _fig15_site("UT", 2021),
        ]

    @pytest.fixture(scope="class")
    def per_site(self, mixed_sites):
        return {
            key: optimize(context, space, STRATEGY)
            for key, context, space in mixed_sites
        }

    def test_evaluate_block_sites_merges_per_hour_count(self, mixed_sites, counters):
        # Four designs per site; a 5-row floor lets the two 8760-hour
        # sites merge while the lone 8784-hour site runs per design.
        blocks = [
            (context, list(space.points(STRATEGY))[:4])
            for _, context, space in mixed_sites
        ]
        merged = evaluate_block_sites(blocks, STRATEGY, min_rows=5)
        assert counters.counter_value("designs_batched") == 8
        for (context, designs), evaluations in zip(blocks, merged):
            assert evaluations == [
                evaluate_design(context, d, STRATEGY) for d in designs
            ]

    def test_one_round_fleet_matches_per_site_optimize(self, mixed_sites, per_site):
        # A batch_size covering every site's grid makes each site one
        # chunk, so the whole fleet is one merged round.
        total = sum(space.size(STRATEGY) for _, _, space in mixed_sites)
        fleet = sweep_fleet(mixed_sites, STRATEGY, batch_size=total)
        assert fleet.complete
        for key, _, _ in mixed_sites:
            result = fleet.site(key).result
            assert result.evaluations == per_site[key].evaluations, key
            assert result.best == per_site[key].best, key

    def test_sweep_fleet_matches_per_site_optimize(self, mixed_sites, per_site):
        result = sweep_fleet(mixed_sites, STRATEGY, batch_size=512)
        assert result.complete
        for key, _, _ in mixed_sites:
            assert result.site(key).result.evaluations == per_site[key].evaluations
