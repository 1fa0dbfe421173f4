"""Text reporting helpers shared by the benchmark harness and examples."""

from .tables import format_table, histogram_rows, percent, spark_bar

__all__ = [
    "format_table",
    "histogram_rows",
    "percent",
    "spark_bar",
]
