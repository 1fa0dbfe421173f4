"""Tests for the stderr progress ticker, a subscriber of the sweep event bus."""

import io
import re

from repro.obs import ProgressTicker, SweepEvents


class _TtyStringIO(io.StringIO):
    def isatty(self):
        return True


def _ticker_bus(stream, **kwargs):
    """A bus with a :class:`ProgressTicker` on ``stream`` subscribed."""
    bus = SweepEvents()
    ticker = ProgressTicker(stream=stream, **kwargs)
    bus.subscribe(ticker)
    return bus, ticker


def _paints(stream):
    """The ``label: done/total`` lines a ticker painted, in order."""
    return re.findall(r"([^\r]+?): (\d+)/(\d+)", stream.getvalue())


class TestProgressTicker:
    def test_paints_progress_line(self):
        stream = io.StringIO()
        bus, _ = _ticker_bus(stream, force=True, min_interval_s=0.0)
        bus.emit("sweep_started", strategy="renewables", total=10)
        bus.emit("chunk_completed", strategy="renewables", start=0, count=3)
        assert "renewables: 3/10 (30%)" in stream.getvalue()

    def test_silent_on_non_tty_stream(self):
        stream = io.StringIO()
        bus, ticker = _ticker_bus(stream)
        bus.emit("sweep_started", strategy="sweep", total=2)
        bus.emit("chunk_completed", strategy="sweep", start=0, count=1)
        ticker.close()
        assert stream.getvalue() == ""

    def test_active_on_tty_stream(self):
        stream = _TtyStringIO()
        bus, _ = _ticker_bus(stream, min_interval_s=0.0)
        bus.emit("sweep_started", strategy="sweep", total=2)
        bus.emit("chunk_completed", strategy="sweep", start=0, count=1)
        assert "sweep: 1/2" in stream.getvalue()

    def test_fresh_sweep_start_paints_nothing(self):
        stream = io.StringIO()
        bus, _ = _ticker_bus(stream, force=True, min_interval_s=0.0)
        bus.emit("sweep_started", strategy="sweep", total=10)
        assert stream.getvalue() == ""

    def test_other_event_kinds_are_ignored(self):
        stream = io.StringIO()
        bus, _ = _ticker_bus(stream, force=True, min_interval_s=0.0)
        bus.emit("sweep_started", strategy="sweep", total=10)
        bus.emit("frontier_updated", strategy="sweep", total_tons=1.0)
        bus.emit("sweep_finished", strategy="sweep", total=10)
        assert stream.getvalue() == ""

    def test_rate_limiting_skips_intermediate_updates(self):
        stream = io.StringIO()
        bus, _ = _ticker_bus(stream, force=True, min_interval_s=3600.0)
        bus.emit("sweep_started", strategy="sweep", total=10)
        bus.emit("chunk_completed", strategy="sweep", start=0, count=1)  # first paint lands
        bus.emit("chunk_completed", strategy="sweep", start=1, count=1)  # rate-limited away
        assert "1/10" in stream.getvalue()
        assert "2/10" not in stream.getvalue()

    def test_final_update_always_paints(self):
        stream = io.StringIO()
        bus, _ = _ticker_bus(stream, force=True, min_interval_s=3600.0)
        bus.emit("sweep_started", strategy="sweep", total=10)
        bus.emit("chunk_completed", strategy="sweep", start=0, count=1)
        bus.emit("chunk_completed", strategy="sweep", start=1, count=9)
        assert "10/10 (100%)" in stream.getvalue()

    def test_zero_total_does_not_divide(self):
        stream = io.StringIO()
        bus, _ = _ticker_bus(stream, force=True, min_interval_s=0.0)
        bus.emit("chunk_completed", strategy="open-ended", start=0, count=5)
        assert "open-ended: 5" in stream.getvalue()

    def test_close_erases_the_line(self):
        stream = io.StringIO()
        bus, ticker = _ticker_bus(stream, force=True, min_interval_s=0.0)
        bus.emit("sweep_started", strategy="sweep", total=2)
        bus.emit("chunk_completed", strategy="sweep", start=0, count=1)
        ticker.close()
        assert stream.getvalue().endswith("\r")


class TestTickerCounting:
    def test_done_above_total_is_clamped(self):
        stream = io.StringIO()
        bus, _ = _ticker_bus(stream, force=True, min_interval_s=0.0)
        bus.emit("sweep_started", strategy="sweep", total=10)
        bus.emit("chunk_completed", strategy="sweep", start=0, count=15)
        assert "sweep: 10/10 (100%)" in stream.getvalue()

    def test_fleet_totals_sum_across_sites(self):
        stream = io.StringIO()
        bus, _ = _ticker_bus(stream, force=True, min_interval_s=0.0)
        bus.emit("sweep_started", site="UT", strategy="sweep", total=6)
        bus.emit("sweep_started", site="OR", strategy="sweep", total=4)
        bus.emit("chunk_completed", site="OR", strategy="sweep", start=0, count=4)
        bus.emit("chunk_completed", site="UT", strategy="sweep", start=0, count=6)
        assert _paints(stream) == [("sweep", "4", "10"), ("sweep", "10", "10")]

    def test_resumed_sweep_first_paint_is_the_checkpointed_count(self):
        """The journal loader mirrors restored chunks as ``resumed``
        ``chunk_completed`` events before the site's ``sweep_started``;
        the first paint is their sum, the last is N/N."""
        stream = io.StringIO()
        bus, _ = _ticker_bus(stream, force=True, min_interval_s=0.0)
        for start in (0, 2, 4):
            bus.emit(
                "chunk_completed", strategy="sweep", start=start, count=2, resumed=True
            )
        assert stream.getvalue() == ""  # no total yet, nothing painted
        bus.emit("sweep_started", strategy="sweep", total=10)
        bus.emit("chunk_completed", strategy="sweep", start=6, count=2)
        bus.emit("chunk_completed", strategy="sweep", start=8, count=2)
        paints = _paints(stream)
        assert paints[0] == ("sweep", "6", "10")
        assert paints[-1] == ("sweep", "10", "10")
        assert "sweep: 6/10 (60%)" in stream.getvalue()

    def test_new_strategy_label_restarts_the_count(self):
        stream = io.StringIO()
        bus, _ = _ticker_bus(stream, force=True, min_interval_s=0.0)
        bus.emit("sweep_started", strategy="first strategy", total=10)
        bus.emit("chunk_completed", strategy="first strategy", start=0, count=9)
        bus.emit("sweep_started", strategy="second strategy", total=10)
        bus.emit("chunk_completed", strategy="second strategy", start=0, count=2)
        assert _paints(stream) == [
            ("first strategy", "9", "10"),
            ("second strategy", "2", "10"),
        ]
        assert "second strategy: 2/10 (20%)" in stream.getvalue()
