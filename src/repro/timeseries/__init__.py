"""Hourly time-series substrate shared by all Carbon Explorer subsystems."""

from .calendar import (
    DEFAULT_CALENDAR,
    HOURS_PER_DAY,
    MONTH_NAMES,
    WEEKDAY_NAMES,
    YearCalendar,
    days_in_month,
    days_in_year,
    is_leap_year,
)
from .series import HourlySeries
from .stats import (
    Histogram,
    best_days_ratio,
    coefficient_of_variation,
    daily_total_histogram,
    histogram,
    pearson_correlation,
    worst_days_ratio,
)

__all__ = [
    "DEFAULT_CALENDAR",
    "HOURS_PER_DAY",
    "MONTH_NAMES",
    "WEEKDAY_NAMES",
    "YearCalendar",
    "days_in_month",
    "days_in_year",
    "is_leap_year",
    "HourlySeries",
    "Histogram",
    "best_days_ratio",
    "coefficient_of_variation",
    "daily_total_histogram",
    "histogram",
    "pearson_correlation",
    "worst_days_ratio",
]
