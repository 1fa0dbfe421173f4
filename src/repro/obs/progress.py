"""Progress reporting for long-running sweeps.

Progress is a subscriber of the sweep event bus, like every other live
consumer: the library itself never prints.  :class:`ProgressTicker` is
the CLI's subscriber: a single self-rewriting ``evaluated/total`` line
on stderr, automatically silent when the stream is not an interactive
terminal (so piped and logged runs stay clean), and rate-limited so it
costs nothing measurable even for very fine sweeps.
"""

from __future__ import annotations

import sys
import time
from typing import Dict, Optional, TextIO

from .events import SweepEvent


class ProgressTicker:
    """Render progress as a rewriting ``label: done/total`` stderr line.

    An :data:`~repro.obs.events.EventCallback`: subscribe it to a
    :class:`~repro.obs.SweepEvents` bus.  Per ``strategy`` label it sums
    the ``total`` of every ``sweep_started`` and the ``count`` of every
    ``chunk_completed``.  Chunks restored from a journal (``resumed:
    true``) count too; they arrive before their site's ``sweep_started``,
    so a resumed sweep's first paint is its checkpointed count.

    ``done`` is a completed *count*, not a grid position: pooled sweeps
    complete chunks out of grid order.  The painted count is clamped to
    the total, and a new label is a new phase with its own count.

    Parameters
    ----------
    stream:
        Destination stream; defaults to ``sys.stderr``.
    min_interval_s:
        Minimum seconds between repaints (final updates always paint).
    force:
        Paint even when the stream is not a TTY (used by tests; also
        handy under ``script``/CI when a ticker is explicitly wanted).
    """

    def __init__(
        self,
        stream: Optional[TextIO] = None,
        min_interval_s: float = 0.1,
        force: bool = False,
    ) -> None:
        self._stream = stream if stream is not None else sys.stderr
        self._min_interval_s = min_interval_s
        self._active = force or bool(
            getattr(self._stream, "isatty", lambda: False)()
        )
        self._done: Dict[str, int] = {}
        self._total: Dict[str, int] = {}
        self._last_paint = float("-inf")
        self._last_width = 0

    def __call__(self, event: SweepEvent) -> None:
        if not self._active:
            return
        payload = event.payload
        label = payload.get("strategy", "")
        if event.kind == "sweep_started":
            self._total[label] = self._total.get(label, 0) + payload["total"]
            if not self._done.get(label):
                return
        elif event.kind == "chunk_completed":
            self._done[label] = self._done.get(label, 0) + payload["count"]
            if payload.get("resumed"):
                # Painted once the site's sweep_started brings its total.
                return
        else:
            return
        self._paint(label, self._done[label], self._total.get(label, 0))

    def _paint(self, label: str, done: int, total: int) -> None:
        if total > 0:
            done = min(done, total)
        now = time.monotonic()
        if done < total and now - self._last_paint < self._min_interval_s:
            return
        self._last_paint = now
        if total > 0:
            line = f"{label}: {done}/{total} ({100.0 * done / total:.0f}%)"
        else:
            line = f"{label}: {done}"
        padding = " " * max(self._last_width - len(line), 0)
        self._stream.write(f"\r{line}{padding}")
        self._stream.flush()
        self._last_width = len(line)

    def close(self) -> None:
        """Erase the ticker line so subsequent output starts clean."""
        if not self._active or self._last_width == 0:
            return
        self._stream.write("\r" + " " * self._last_width + "\r")
        self._stream.flush()
        self._last_width = 0
