"""Shared fixtures: one simulated site/grid reused across the suite.

Heavy objects (full-year grid datasets, site contexts) are session-scoped
so the suite stays fast; tests must treat them as read-only.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.evaluate import SiteContext, build_site_context
from repro.grid import GridDataset, generate_grid_dataset
from repro.obs import SweepEvents
from repro.timeseries import DEFAULT_CALENDAR, HourlySeries, YearCalendar


@pytest.fixture(scope="session")
def calendar() -> YearCalendar:
    """The default (2020, leap-year) calendar."""
    return DEFAULT_CALENDAR


@pytest.fixture(scope="session")
def calendar_2021() -> YearCalendar:
    """A non-leap-year calendar for cross-calendar checks."""
    return YearCalendar(2021)


@pytest.fixture(scope="session")
def pace_grid() -> GridDataset:
    """Synthetic 2020 grid data for PACE (Utah, hybrid region)."""
    return generate_grid_dataset("PACE")


@pytest.fixture(scope="session")
def bpat_grid() -> GridDataset:
    """Synthetic 2020 grid data for BPAT (Oregon, wind-only region)."""
    return generate_grid_dataset("BPAT")


@pytest.fixture(scope="session")
def duk_grid() -> GridDataset:
    """Synthetic 2020 grid data for DUK (North Carolina, solar-only region)."""
    return generate_grid_dataset("DUK")


@pytest.fixture(scope="session")
def ut_context() -> SiteContext:
    """Full site context for the Utah datacenter (the paper's running example)."""
    return build_site_context("UT")


@pytest.fixture(scope="session")
def or_context() -> SiteContext:
    """Full site context for the Oregon datacenter (wind-only worst case)."""
    return build_site_context("OR")


@pytest.fixture()
def rng() -> np.random.Generator:
    """A fresh deterministic RNG per test."""
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def flat_demand(calendar) -> HourlySeries:
    """A constant 10 MW demand trace — the simplest workload."""
    return HourlySeries.constant(10.0, calendar, name="flat demand")


@pytest.fixture()
def interrupting_bus():
    """Factory: an event bus that interrupts the sweep narrating onto it.

    ``interrupting_bus(k)`` returns a :class:`SweepEvents` bus whose
    subscriber raises :class:`KeyboardInterrupt` on the sweep's k-th live
    ``chunk_completed`` event (chunks restored from a journal, tagged
    ``resumed``, do not count) — a Ctrl-C landing right after that chunk
    is committed and journaled.
    """

    def make(k: int) -> SweepEvents:
        bus = SweepEvents()
        live = 0

        def interrupt(event) -> None:
            nonlocal live
            if event.kind == "chunk_completed" and not event.payload.get("resumed"):
                live += 1
                if live == k:
                    raise KeyboardInterrupt

        bus.subscribe(interrupt)
        return bus

    return make
