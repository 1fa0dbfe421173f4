"""Mutation fuzz of the grid and trace CSV readers.

Each case takes a file written by ``write_grid_csv`` / ``write_trace_csv``
and damages it the way real files get damaged: a leap year's row count
against a common year's, a duplicated or missing hour, a NaN or inf
cell, a cut mid-row, reordered columns, a byte-order mark, other line
endings.  The reader must then either return exactly what it returns for
the clean file or raise its own error type (``GridCsvError`` /
``TraceCsvError``); any other exception, or a different dataset, fails.
"""

from __future__ import annotations

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grid import EnergySource, generate_grid_dataset
from repro.io import (
    GridCsvError,
    TraceCsvError,
    read_grid_csv,
    read_trace_csv,
    write_grid_csv,
    write_trace_csv,
)
from repro.timeseries import HourlySeries, YearCalendar

#: Calendar years: 2020 is a leap year (8784 rows), 2021 is not (8760).
YEARS = (2020, 2021)

MUTATIONS = (
    "year_length",
    "duplicate_hour",
    "duplicate_and_drop",
    "missing_hour",
    "non_finite",
    "truncate",
    "reorder_columns",
    "bom",
    "line_endings",
)


def _grid_text(year):
    buffer = io.StringIO()
    write_grid_csv(generate_grid_dataset("PACE", year=year), buffer)
    return buffer.getvalue()


def _trace_text(year):
    calendar = YearCalendar(year)
    rng = np.random.default_rng(year)
    series = HourlySeries(rng.uniform(5.0, 25.0, calendar.n_hours), calendar, name="demand (MW)")
    buffer = io.StringIO()
    write_trace_csv(series, buffer)
    return buffer.getvalue()


def _grid_key(parsed):
    fuels = tuple(parsed.source(fuel).values.tobytes() for fuel in EnergySource)
    return (
        parsed.authority.code,
        parsed.calendar.year,
        parsed.demand.values.tobytes(),
        parsed.curtailed.values.tobytes(),
        fuels,
    )


def _trace_key(parsed):
    return parsed.calendar.year, parsed.name, parsed.values.tobytes()


#: (writer output by year, reader, its error type, header rows, exact key).
FORMATS = {
    "grid": (_grid_text, read_grid_csv, GridCsvError, 2, _grid_key),
    "trace": (_trace_text, read_trace_csv, TraceCsvError, 1, _trace_key),
}


@pytest.fixture(scope="module")
def clean():
    """Each format's clean text and parsed key, per year."""
    out = {}
    for name, (write, read, _, _, key) in FORMATS.items():
        for year in YEARS:
            text = write(year)
            out[name, year] = (text, key(read(io.StringIO(text))))
    return out


def mutate(text, year, kind, header_rows, data):
    """``text`` damaged by ``kind``, plus whether the damage must raise.

    ``None`` means the reader may parse the result, but only to exactly
    the clean file's dataset.
    """
    lines = text.splitlines(keepends=True)
    head, body = lines[:header_rows], lines[header_rows:]
    n_rows = len(body)
    row = data.draw(st.integers(0, n_rows - 1), label="row")
    if kind == "year_length":
        if year == 2020:  # a leap year cut to a common year's rows
            body = body[:-24]
        else:  # a common year padded to a leap year's rows
            tail = body[-24:]
            body = body + [
                line.replace(str(year), str(year + 1), 1) for line in tail
            ]
        return "".join(head + body), True
    if kind == "duplicate_hour":
        body.insert(row, body[row])
        return "".join(head + body), True
    if kind == "duplicate_and_drop":
        other = data.draw(
            st.integers(0, n_rows - 1).filter(lambda i: i != row), label="dropped"
        )
        copy = body[row]
        del body[other]
        body.insert(row, copy)
        return "".join(head + body), True
    if kind == "missing_hour":
        del body[row]
        return "".join(head + body), True
    if kind == "non_finite":
        cells = body[row].rstrip("\r\n").split(",")
        column = data.draw(st.integers(1, len(cells) - 1), label="column")
        cells[column] = data.draw(
            st.sampled_from(["nan", "NaN", "inf", "-inf", "Infinity"]), label="value"
        )
        body[row] = ",".join(cells) + "\r\n"
        return "".join(head + body), True
    if kind == "truncate":
        start = len("".join(head)) + 1
        cut = data.draw(st.integers(start, len(text) - 1), label="cut")
        # Only a cut between the final "\r" and "\n" keeps every cell.
        return text[:cut], None if text[cut:] == "\n" else True
    if kind == "reorder_columns":
        names = head[-1].rstrip("\r\n").split(",")
        order = data.draw(st.permutations(range(len(names))), label="order")
        moved = [
            ",".join(cells[i] for i in order) + "\r\n"
            for cells in (line.rstrip("\r\n").split(",") for line in [head[-1]] + body)
        ]
        keeps_leading = list(order[:2]) == [0, 1]
        return "".join(head[:-1] + moved), None if keeps_leading else True
    if kind == "bom":
        return "\ufeff" + text, None
    if kind == "line_endings":
        ending = data.draw(st.sampled_from(["\n", "\r", "mixed"]), label="ending")
        if ending == "mixed":
            return "".join(
                line.replace("\r\n", "\n") if i % 2 else line
                for i, line in enumerate(lines)
            ), None
        return text.replace("\r\n", ending), None
    raise AssertionError(kind)


@settings(deadline=None, max_examples=60)
@given(
    name=st.sampled_from(sorted(FORMATS)),
    year=st.sampled_from(YEARS),
    kind=st.sampled_from(MUTATIONS),
    data=st.data(),
)
def test_mutated_file_round_trips_exactly_or_raises_the_typed_error(
    clean, name, year, kind, data
):
    _, read, error, header_rows, key = FORMATS[name]
    text, expected = clean[name, year]
    damaged, must_raise = mutate(text, year, kind, header_rows, data)
    try:
        parsed = read(io.StringIO(damaged))
    except error:
        return
    assert not must_raise, f"{kind} was accepted"
    assert key(parsed) == expected


@pytest.mark.parametrize("name", sorted(FORMATS))
def test_cut_inside_the_last_value_raises(clean, name):
    """The one cut that leaves every row and cell in place: inside the last
    value, which still parses as a (shorter) number."""
    _, read, error, _, _ = FORMATS[name]
    text, _ = clean[name, 2021]
    with pytest.raises(error, match="line break"):
        read(io.StringIO(text[: len(text) - 4]))
