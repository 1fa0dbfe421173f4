"""EIA Hourly Grid Monitor CSV interchange.

The real Carbon Explorer consumes CSV exports from the EIA Hourly Grid
Monitor ("Net generation by energy source").  This module speaks that
dialect in both directions so users with real exports can swap out the
synthetic substrate:

* :func:`write_grid_csv` serializes a :class:`~repro.grid.GridDataset` as an
  EIA-style wide CSV — one row per hour (UTC timestamp), one column per
  fuel, plus demand.
* :func:`read_grid_csv` parses such a file back into a ``GridDataset``
  (attaching it to a registered balancing authority for metadata).

The format is deliberately strict: a full year of hourly rows in order,
each with one cell per column, numeric non-negative megawatt values,
recognized fuel column names, and a line break after the last row (a
file cut inside its last cell still parses, so only the missing line
break tells it from a shorter number).  A leading byte-order mark is
skipped.  Malformed files fail loudly with row/column context rather than
producing a silently misaligned year of data.
"""

from __future__ import annotations

import csv
import datetime as _dt
import io
import pathlib
from typing import Dict, List, Optional, TextIO, Union

import numpy as np

from ..grid.authorities import get_authority
from ..grid.dataset import GridDataset
from ..grid.sources import EnergySource
from ..timeseries import HourlySeries, YearCalendar

#: Column header used for the timestamp, matching EIA exports.
TIMESTAMP_COLUMN = "UTC time"

#: Column header for system demand.
DEMAND_COLUMN = "Demand (MW)"

#: Column header for curtailed renewable energy (an extension column; absent
#: in real EIA exports and treated as zero when missing).
CURTAILED_COLUMN = "Curtailed (MW)"

#: Mapping between our fuel enum and the EIA-style column names.
FUEL_COLUMNS: Dict[EnergySource, str] = {
    EnergySource.WIND: "Net generation from wind (MW)",
    EnergySource.SOLAR: "Net generation from solar (MW)",
    EnergySource.WATER: "Net generation from hydro (MW)",
    EnergySource.NUCLEAR: "Net generation from nuclear (MW)",
    EnergySource.NATURAL_GAS: "Net generation from natural gas (MW)",
    EnergySource.COAL: "Net generation from coal (MW)",
    EnergySource.OIL: "Net generation from petroleum (MW)",
    EnergySource.OTHER: "Net generation from other (MW)",
}

_COLUMN_TO_FUEL = {column: fuel for fuel, column in FUEL_COLUMNS.items()}

PathOrFile = Union[str, pathlib.Path, TextIO]


class GridCsvError(ValueError):
    """A malformed EIA-style grid CSV (wrong columns, rows, or values)."""


def _timestamps(calendar: YearCalendar) -> List[str]:
    start = _dt.datetime(calendar.year, 1, 1)
    return [
        (start + _dt.timedelta(hours=hour)).strftime("%Y-%m-%dT%H:00")
        for hour in range(calendar.n_hours)
    ]


def write_grid_csv(grid: GridDataset, destination: PathOrFile) -> None:
    """Write a :class:`GridDataset` as an EIA-style wide CSV.

    Columns: timestamp, demand, one per fuel (in enum order), curtailed.
    """
    fuels = list(FUEL_COLUMNS)
    header = (
        [TIMESTAMP_COLUMN, DEMAND_COLUMN]
        + [FUEL_COLUMNS[fuel] for fuel in fuels]
        + [CURTAILED_COLUMN]
    )
    stamps = _timestamps(grid.calendar)

    def _write(handle: TextIO) -> None:
        writer = csv.writer(handle)
        writer.writerow(["Balancing Authority", grid.authority.code])
        writer.writerow(header)
        demand = grid.demand.values
        fuel_values = [grid.source(fuel).values for fuel in fuels]
        curtailed = grid.curtailed.values
        for hour, stamp in enumerate(stamps):
            row = [stamp, f"{demand[hour]:.3f}"]
            row.extend(f"{values[hour]:.3f}" for values in fuel_values)
            row.append(f"{curtailed[hour]:.3f}")
            writer.writerow(row)

    if isinstance(destination, (str, pathlib.Path)):
        with open(destination, "w", newline="") as handle:
            _write(handle)
    else:
        _write(destination)


def _parse_float(text: str, row_index: int, column: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise GridCsvError(
            f"row {row_index}: column {column!r} is not numeric: {text!r}"
        ) from None
    if not np.isfinite(value):
        raise GridCsvError(f"row {row_index}: column {column!r} is not finite")
    if value < 0:
        raise GridCsvError(f"row {row_index}: column {column!r} is negative: {value}")
    return value


def read_grid_csv(source: PathOrFile, year: Optional[int] = None) -> GridDataset:
    """Parse an EIA-style wide CSV back into a :class:`GridDataset`.

    Parameters
    ----------
    source:
        Path or open text handle produced by :func:`write_grid_csv` (or a
        real EIA export reshaped to these column names).
    year:
        Calendar year the file covers; inferred from the first timestamp
        when omitted.

    Raises
    ------
    GridCsvError
        On unknown balancing authority, missing/unknown columns, wrong row
        count or cell count, out-of-order timestamps, non-numeric/negative
        values, or no line break after the last row.
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
        raise GridCsvError(f"unreadable CSV: {error}") from None
    if len(rows) < 3:
        raise GridCsvError("file too short: need BA row, header row, and data")

    ba_row = rows[0]
    if len(ba_row) != 2 or ba_row[0] != "Balancing Authority":
        raise GridCsvError(f"first row must be ['Balancing Authority', code], got {ba_row}")
    try:
        authority = get_authority(ba_row[1])
    except KeyError as error:
        raise GridCsvError(str(error)) from None

    header = rows[1]
    if header[:2] != [TIMESTAMP_COLUMN, DEMAND_COLUMN]:
        raise GridCsvError(
            f"header must start with {TIMESTAMP_COLUMN!r}, {DEMAND_COLUMN!r}; got {header[:2]}"
        )
    fuel_indices: Dict[EnergySource, int] = {}
    curtailed_index = None
    for index, column in enumerate(header[2:], start=2):
        if column == CURTAILED_COLUMN:
            curtailed_index = index
        elif column in _COLUMN_TO_FUEL:
            fuel_indices[_COLUMN_TO_FUEL[column]] = index
        else:
            raise GridCsvError(f"unknown column {column!r}")
    missing = [f.value for f in FUEL_COLUMNS if f not in fuel_indices]
    if missing:
        raise GridCsvError(f"missing fuel columns: {missing}")

    data_rows = rows[2:]
    if year is None:
        try:
            year = int(data_rows[0][0][:4])
        except (ValueError, IndexError):
            raise GridCsvError(
                f"cannot infer year from first timestamp {data_rows[0][:1]}"
            ) from None
    calendar = YearCalendar(year)
    if len(data_rows) != calendar.n_hours:
        raise GridCsvError(
            f"expected {calendar.n_hours} hourly rows for {year}, got {len(data_rows)}"
        )

    expected_stamps = _timestamps(calendar)
    demand = np.empty(calendar.n_hours)
    curtailed = np.zeros(calendar.n_hours)
    fuels = {fuel: np.empty(calendar.n_hours) for fuel in fuel_indices}
    for hour, row in enumerate(data_rows):
        if len(row) != len(header):
            raise GridCsvError(
                f"row {hour}: expected {len(header)} cells, got {len(row)}"
            )
        if row[0] != expected_stamps[hour]:
            raise GridCsvError(
                f"row {hour}: timestamp {row[0]!r} out of order "
                f"(expected {expected_stamps[hour]!r})"
            )
        demand[hour] = _parse_float(row[1], hour, DEMAND_COLUMN)
        for fuel, index in fuel_indices.items():
            fuels[fuel][hour] = _parse_float(row[index], hour, FUEL_COLUMNS[fuel])
        if curtailed_index is not None:
            curtailed[hour] = _parse_float(row[curtailed_index], hour, CURTAILED_COLUMN)
    if not content.endswith(("\n", "\r")):
        raise GridCsvError("no line break after the last row: the file looks truncated")

    generation = {
        fuel: HourlySeries(values, calendar, name=fuel.value)
        for fuel, values in fuels.items()
    }
    return GridDataset(
        authority=authority,
        generation=generation,
        demand=HourlySeries(demand, calendar, name="demand"),
        curtailed=HourlySeries(curtailed, calendar, name="curtailed"),
    )
