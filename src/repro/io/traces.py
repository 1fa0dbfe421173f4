"""Plain trace CSV interchange for demand/supply series.

Datacenter operators exporting their own hourly power traces need a simpler
format than the wide grid CSV: two columns, timestamp and megawatts.  These
helpers read and write that format for any :class:`HourlySeries`, with the
same strictness guarantees as the grid reader (full year, ordered hours,
finite non-negative values, a line break after the last row, a leading
byte-order mark skipped).
"""

from __future__ import annotations

import csv
import datetime as _dt
import io
import pathlib
from typing import Optional, TextIO, Union

import numpy as np

from ..timeseries import HourlySeries, YearCalendar

PathOrFile = Union[str, pathlib.Path, TextIO]


class TraceCsvError(ValueError):
    """A malformed two-column trace CSV."""


def write_trace_csv(series: HourlySeries, destination: PathOrFile) -> None:
    """Write an :class:`HourlySeries` as ``timestamp,value_mw`` rows."""
    calendar = series.calendar
    start = _dt.datetime(calendar.year, 1, 1)

    def _write(handle: TextIO) -> None:
        writer = csv.writer(handle)
        writer.writerow(["UTC time", series.name or "value (MW)"])
        for hour, value in enumerate(series.values):
            stamp = (start + _dt.timedelta(hours=hour)).strftime("%Y-%m-%dT%H:00")
            writer.writerow([stamp, f"{value:.6f}"])

    if isinstance(destination, (str, pathlib.Path)):
        with open(destination, "w", newline="") as handle:
            _write(handle)
    else:
        _write(destination)


def read_trace_csv(
    source: PathOrFile, year: Optional[int] = None, allow_negative: bool = False
) -> HourlySeries:
    """Parse a two-column trace CSV back into an :class:`HourlySeries`.

    Parameters
    ----------
    source:
        Path or open handle of a file produced by :func:`write_trace_csv`.
    year:
        Calendar year; inferred from the first timestamp when omitted.
    allow_negative:
        Permit negative values (e.g. net-flow traces).  Power traces should
        leave this off so data errors surface immediately.
    """
    if isinstance(source, (str, pathlib.Path)):
        with open(source, newline="") as handle:
            content = handle.read()
    else:
        content = source.read()
    content = content.removeprefix("\ufeff")

    # newline="" lets the csv module see every line ending (CR, LF, CRLF).
    try:
        rows = list(csv.reader(io.StringIO(content, newline="")))
    except csv.Error as error:
        raise TraceCsvError(f"unreadable CSV: {error}") from None
    if len(rows) < 2:
        raise TraceCsvError("file too short: need a header row and data")
    header, data_rows = rows[0], rows[1:]
    if len(header) != 2:
        raise TraceCsvError(f"expected two columns, got header {header}")

    if year is None:
        try:
            year = int(data_rows[0][0][:4])
        except (ValueError, IndexError):
            raise TraceCsvError("cannot infer year from first timestamp") from None
    calendar = YearCalendar(year)
    if len(data_rows) != calendar.n_hours:
        raise TraceCsvError(
            f"expected {calendar.n_hours} hourly rows for {year}, got {len(data_rows)}"
        )

    start = _dt.datetime(calendar.year, 1, 1)
    values = np.empty(calendar.n_hours)
    for hour, row in enumerate(data_rows):
        if len(row) != 2:
            raise TraceCsvError(f"row {hour}: expected two cells, got {row}")
        expected = (start + _dt.timedelta(hours=hour)).strftime("%Y-%m-%dT%H:00")
        if row[0] != expected:
            raise TraceCsvError(
                f"row {hour}: timestamp {row[0]!r} out of order (expected {expected!r})"
            )
        try:
            value = float(row[1])
        except ValueError:
            raise TraceCsvError(f"row {hour}: non-numeric value {row[1]!r}") from None
        if not np.isfinite(value):
            raise TraceCsvError(f"row {hour}: value is not finite")
        if value < 0 and not allow_negative:
            raise TraceCsvError(f"row {hour}: negative value {value}")
        values[hour] = value
    # A file cut inside its last value still parses; only the missing line
    # break tells it from a shorter number.
    if not content.endswith(("\n", "\r")):
        raise TraceCsvError("no line break after the last row: the file looks truncated")
    return HourlySeries(values, calendar, name=header[1])
