"""Tests for the sweep event bus (:mod:`repro.obs.events`)."""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    EVENTS_FORMAT,
    JsonlSink,
    SweepEvent,
    SweepEvents,
    enable_metrics,
    metrics_snapshot,
    read_events_jsonl,
    reset_metrics,
)
from repro.obs.metric_names import EVENTS, UnknownMetricError


class TestSweepEventsBus:
    def test_emit_stamps_consecutive_seq(self):
        bus = SweepEvents()
        first = bus.emit("sweep_started", total=8)
        second = bus.emit("chunk_completed", start=0, count=4)
        assert (first.seq, second.seq) == (0, 1)
        assert [e.kind for e in bus.events()] == [
            "sweep_started",
            "chunk_completed",
        ]
        assert second.payload == {"start": 0, "count": 4}

    def test_unknown_kind_raises_on_validating_bus(self):
        bus = SweepEvents()
        with pytest.raises(UnknownMetricError):
            bus.emit("chunk_complete")  # typo'd kind  # repro-lint: disable=RL007,RL009 — deliberately unregistered; exercises the runtime registry guard
        assert bus.events() == ()

    def test_every_declared_kind_is_emittable(self):
        bus = SweepEvents()
        for kind in sorted(EVENTS):
            bus.emit(kind)
        assert sum(bus.counts().values()) == len(EVENTS)

    def test_emit_after_close_raises(self):
        bus = SweepEvents()
        bus.close()
        bus.close()  # idempotent
        assert bus.closed
        with pytest.raises(RuntimeError):
            bus.emit("sweep_started")

    def test_subscribers_see_events_in_order(self):
        bus = SweepEvents()
        seen = []
        unsubscribe = bus.subscribe(seen.append)
        bus.emit("sweep_started")
        bus.emit("sweep_finished")
        assert [e.kind for e in seen] == ["sweep_started", "sweep_finished"]
        unsubscribe()
        bus.emit("frontier_updated")
        assert len(seen) == 2

    def test_counts_tallies_by_kind(self):
        bus = SweepEvents()
        bus.emit("sweep_started")
        bus.emit("chunk_completed", start=0)
        bus.emit("chunk_completed", start=4)
        assert bus.counts() == {"sweep_started": 1, "chunk_completed": 2}

    def test_event_as_json_round_trips(self):
        event = SweepEvent(seq=3, kind="chunk_retried", time_s=12.5, payload={"a": 1})
        clone = json.loads(json.dumps(event.as_json()))
        assert clone == {
            "seq": 3,
            "kind": "chunk_retried",
            "time_s": 12.5,
            "payload": {"a": 1},
        }


#: (kind, payload, counters moved, gauges set): the bus's accounting table.
ACCOUNTING = [
    ("chunk_completed", {"start": 0, "count": 4}, {}, {}),
    (
        "chunk_completed",
        {"start": 4, "count": 3, "resumed": True},
        {"checkpoint_chunks_skipped": 1, "checkpoint_designs_skipped": 3},
        {},
    ),
    (
        "sweep_finished",
        {"site": "UT", "total": 12, "status": "complete"},
        {"sweeps_completed": 1},
        {"sweep_grid_points": 12},
    ),
    ("site_quarantined", {"site": "OR", "mode": "serial"}, {"sites_quarantined": 1}, {}),
    (
        "deadline_exceeded",
        {"dropped_chunks": 5, "sites": ["TX"]},
        {"chunks_deadline_dropped": 5},
        {"fleet_deadline_remaining_s": 0.0},
    ),
    ("capacity_stolen", {"from_site": "OR", "to_site": "UT"}, {"capacity_steals": 1}, {}),
    ("chunk_retried", {"site": "UT", "ordinal": 2}, {"chunk_retries": 1}, {}),
    ("sweep_started", {"site": "UT", "total": 12}, {}, {}),
]


class TestAccounting:
    @pytest.mark.parametrize(
        "kind, payload, counters, gauges",
        ACCOUNTING,
        ids=[
            f"{kind}{'-resumed' if payload.get('resumed') else ''}"
            for kind, payload, _, _ in ACCOUNTING
        ],
    )
    def test_event_moves_exactly_its_metrics(self, kind, payload, counters, gauges):
        reset_metrics()
        enable_metrics()
        SweepEvents().emit(kind, **payload)
        snapshot = metrics_snapshot()
        assert snapshot["counters"] == counters
        assert snapshot["gauges"] == gauges

    def test_logs_only_the_terminal_and_fault_kinds(self, caplog):
        bus = SweepEvents()
        with caplog.at_level("INFO", logger="repro"):
            for kind, payload, _, _ in ACCOUNTING:
                bus.emit(kind, **payload)
        logged = [
            (r.levelname, r.getMessage().split()[0])
            for r in caplog.records
            if r.name == "repro.obs.events"
        ]
        assert logged == [
            ("INFO", "sweep_finished"),
            ("WARNING", "site_quarantined"),
            ("WARNING", "deadline_exceeded"),
            ("INFO", "capacity_stolen"),
        ]


class TestJsonlSink:
    def test_writes_header_and_events(self, tmp_path):
        path = tmp_path / "events.jsonl"
        bus = SweepEvents()
        with JsonlSink(path) as sink:
            bus.subscribe(sink)
            bus.emit("sweep_started", total=4)
            bus.emit("sweep_finished")
            assert sink.events_written == 2
            assert sink.path == str(path)
        lines = path.read_text().splitlines()
        assert json.loads(lines[0]) == {"format": EVENTS_FORMAT}
        assert [json.loads(line)["kind"] for line in lines[1:]] == [
            "sweep_started",
            "sweep_finished",
        ]

    def test_read_events_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        bus = SweepEvents()
        with JsonlSink(path) as sink:
            bus.subscribe(sink)
            bus.emit("sweep_started", site="UT")
            bus.emit("chunk_completed", start=0, count=2)
        records = read_events_jsonl(path)
        assert [r["kind"] for r in records] == ["sweep_started", "chunk_completed"]
        assert records[0]["payload"] == {"site": "UT"}
        assert [r["seq"] for r in records] == [0, 1]

    def test_read_rejects_missing_header(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "sweep_started"}\n')
        with pytest.raises(ValueError, match="format header"):
            read_events_jsonl(path)

    def test_read_rejects_damaged_line(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        path.write_text(
            json.dumps({"format": EVENTS_FORMAT})
            + "\n"
            + '{"kind": "sweep_started"'
            + "\n"
        )
        with pytest.raises(ValueError, match="not valid JSON"):
            read_events_jsonl(path)

    def test_read_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            read_events_jsonl(path)

    def test_sink_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "events.jsonl"
        with JsonlSink(path):
            pass
        assert path.exists()
