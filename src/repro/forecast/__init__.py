"""Day-ahead forecasting and forecast-driven (online) scheduling."""

from .metrics import (
    mean_absolute_error,
    normalized_mae,
)
from .models import (
    BlendedForecaster,
    ClimatologyForecaster,
    PersistenceForecaster,
    forecast_series,
)
from .online import OnlineScheduleResult, schedule_with_forecast

__all__ = [
    "mean_absolute_error",
    "normalized_mae",
    "BlendedForecaster",
    "ClimatologyForecaster",
    "PersistenceForecaster",
    "forecast_series",
    "OnlineScheduleResult",
    "schedule_with_forecast",
]
