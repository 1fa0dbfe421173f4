"""Round-trip and validation tests for plain trace CSVs."""

import io

import numpy as np
import pytest

from repro.io import TraceCsvError, read_trace_csv, write_trace_csv
from repro.timeseries import DEFAULT_CALENDAR, HourlySeries


@pytest.fixture()
def demand_series():
    rng = np.random.default_rng(9)
    return HourlySeries(
        rng.uniform(5.0, 25.0, DEFAULT_CALENDAR.n_hours),
        DEFAULT_CALENDAR,
        name="demand (MW)",
    )


class TestRoundTrip:
    def test_values_preserved(self, demand_series):
        buffer = io.StringIO()
        write_trace_csv(demand_series, buffer)
        parsed = read_trace_csv(io.StringIO(buffer.getvalue()))
        assert np.allclose(parsed.values, demand_series.values, atol=1e-6)

    def test_name_preserved(self, demand_series):
        buffer = io.StringIO()
        write_trace_csv(demand_series, buffer)
        parsed = read_trace_csv(io.StringIO(buffer.getvalue()))
        assert parsed.name == "demand (MW)"

    def test_file_path(self, tmp_path, demand_series):
        path = tmp_path / "trace.csv"
        write_trace_csv(demand_series, path)
        parsed = read_trace_csv(path)
        assert parsed == demand_series or np.allclose(
            parsed.values, demand_series.values, atol=1e-6
        )

    def test_non_leap_year(self):
        from repro.timeseries import YearCalendar

        series = HourlySeries.constant(3.0, YearCalendar(2021), name="x")
        buffer = io.StringIO()
        write_trace_csv(series, buffer)
        parsed = read_trace_csv(io.StringIO(buffer.getvalue()))
        assert parsed.calendar.year == 2021
        assert len(parsed) == 8760


class TestValidation:
    def _mutate(self, demand_series, fn):
        buffer = io.StringIO()
        write_trace_csv(demand_series, buffer)
        lines = buffer.getvalue().splitlines()
        fn(lines)
        return io.StringIO("\n".join(lines) + "\n")

    def test_short_file_rejected(self):
        with pytest.raises(TraceCsvError, match="too short"):
            read_trace_csv(io.StringIO("header\n"))

    def test_wrong_column_count_rejected(self):
        with pytest.raises(TraceCsvError, match="two columns"):
            read_trace_csv(io.StringIO("a,b,c\n1,2,3\n"))

    def test_truncated_rejected(self, demand_series):
        source = self._mutate(demand_series, lambda lines: lines.__delitem__(-1))
        with pytest.raises(TraceCsvError, match="hourly rows"):
            read_trace_csv(source)

    def test_non_numeric_rejected(self, demand_series):
        def corrupt(lines):
            stamp = lines[1].split(",")[0]
            lines[1] = f"{stamp},abc"

        with pytest.raises(TraceCsvError, match="non-numeric"):
            read_trace_csv(self._mutate(demand_series, corrupt))

    def test_negative_rejected_by_default(self, demand_series):
        def corrupt(lines):
            stamp = lines[1].split(",")[0]
            lines[1] = f"{stamp},-1.0"

        with pytest.raises(TraceCsvError, match="negative"):
            read_trace_csv(self._mutate(demand_series, corrupt))

    def test_negative_allowed_when_opted_in(self, demand_series):
        def corrupt(lines):
            stamp = lines[1].split(",")[0]
            lines[1] = f"{stamp},-1.0"

        parsed = read_trace_csv(
            self._mutate(demand_series, corrupt), allow_negative=True
        )
        assert parsed[0] == -1.0

    def test_out_of_order_rejected(self, demand_series):
        def swap(lines):
            lines[1], lines[2] = lines[2], lines[1]

        with pytest.raises(TraceCsvError, match="out of order"):
            read_trace_csv(self._mutate(demand_series, swap))
