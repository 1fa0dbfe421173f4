"""``BENCH_trajectory.json``: the committed record of benchmark results.

Every entry is one ``perfbench/run.py`` result as a perf-claiming change
recorded it: which workload and seed, which side of the change, the run's
stamp (the commit and source digest measured, the raw sweep median and
the host-speed kernel median that scale it) and the end-to-end metrics
``BENCHMARK.json`` declares.  A gain quoted in CHANGES.md or README can
then be traced to the stamped runs behind it.
"""

from __future__ import annotations

import json
import math
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]

STAMP_FIELDS = ("commit", "source_sha256", "raw_sweep_s_median", "hostspeed_s_median")


def _load(name):
    with open(ROOT / name) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def entries():
    return _load("BENCH_trajectory.json")["entries"]


@pytest.fixture(scope="module")
def spec():
    return _load("BENCHMARK.json")


def test_entries_exist(entries):
    assert entries


def test_every_entry_is_stamped(entries, spec):
    workloads = {w["name"] for w in spec["workloads"]}
    for index, entry in enumerate(entries):
        assert entry["workload"] in workloads, index
        assert isinstance(entry["seed"], int), index
        stamp = entry["stamp"]
        assert stamp["workload"] == entry["workload"], index
        assert stamp["seed"] == entry["seed"], index
        for field in STAMP_FIELDS:
            assert stamp.get(field), (index, field)
        assert len(stamp["commit"]) == 40, index
        for field in ("raw_sweep_s_median", "hostspeed_s_median"):
            assert math.isfinite(stamp[field]) and stamp[field] > 0.0, (index, field)


def test_every_entry_carries_the_end_to_end_metrics(entries, spec):
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for index, entry in enumerate(entries):
        result = entry["result"]
        assert result["correct"] is True and result["failed"] == 0, index
        assert set(result["metrics"]) >= set(units), index
        for name, unit in units.items():
            metric = result["metrics"][name]
            assert metric["unit"] == unit, (index, name)
            assert math.isfinite(metric["value"]) and metric["value"] > 0.0, (index, name)
