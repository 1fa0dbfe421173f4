"""Tests for the text reporting helpers."""

import pytest

from repro.reporting import format_table, histogram_rows, percent, spark_bar


class TestFormatTable:
    def test_basic_rendering(self):
        text = format_table(["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = text.splitlines()
        assert lines[0].split() == ["a", "bb"]
        assert "333" in lines[3]

    def test_title(self):
        text = format_table(["x"], [["1"]], title="My Table")
        assert text.startswith("My Table\n========")

    def test_column_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [["only one"]])

    def test_empty_headers_rejected(self):
        with pytest.raises(ValueError):
            format_table([], [])

    def test_alignment(self):
        text = format_table(["col"], [["x"], ["longer"]])
        lines = text.splitlines()
        # Header padded to the widest cell.
        assert lines[1] == "-" * len("longer")


class TestHelpers:
    def test_percent(self):
        assert percent(0.5149) == "51.5%"
        assert percent(1.0, precision=0) == "100%"

    def test_spark_bar_full_and_empty(self):
        assert spark_bar(1.0, width=5) == "#####"
        assert spark_bar(0.0, width=5) == "....."

    def test_spark_bar_clamps(self):
        assert spark_bar(2.0, width=4) == "####"
        assert spark_bar(-1.0, width=4) == "...."

    def test_spark_bar_validation(self):
        with pytest.raises(ValueError):
            spark_bar(0.5, width=0)

    def test_histogram_rows(self):
        rows = histogram_rows([1.0, 2.0], [3, 1])
        assert len(rows) == 2
        assert rows[0][1] == 3

    def test_histogram_rows_length_mismatch(self):
        with pytest.raises(ValueError):
            histogram_rows([1.0], [1, 2])
