"""Synthetic datacenter demand traces (paper §3.1, Fig. 3).

The paper's demand-side input is Meta's hourly per-datacenter power, which is
proprietary.  We synthesize it from first principles instead (substitution
documented in DESIGN.md): a diurnal CPU-utilization cycle with the ~20-point
swing the paper reports for Meta (15 points for the Google/Borg comparison),
a weekend dip, occasional event/holiday peaks, and noise — mapped through the
energy-proportional :class:`~repro.datacenter.power_model.DatacenterPowerModel`,
which compresses it into the ~4% facility power swing of Fig. 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from ..timeseries import HOURS_PER_DAY, HourlySeries, YearCalendar
from .locations import DatacenterSite
from .power_model import DatacenterPowerModel, fleet_for_average_power


@dataclass(frozen=True)
class UtilizationProfile:
    """Parameters of a synthetic fleet CPU-utilization trace.

    Attributes
    ----------
    mean_utilization:
        Long-run average fleet utilization.
    diurnal_swing:
        Max-minus-min of the deterministic daily cycle, in utilization
        points (0.20 = the paper's ~20% Meta swing; 0.15 = Google's).
    peak_hour:
        Local hour of the daily utilization maximum (user activity peak).
    weekend_dip:
        Utilization points subtracted on Saturdays and Sundays.
    n_event_days:
        Number of special-event/holiday days with an extra utilization boost.
    event_boost:
        Utilization points added across an event day.
    noise:
        Standard deviation of hourly Gaussian noise, in utilization points.
    """

    mean_utilization: float = 0.55
    diurnal_swing: float = 0.20
    peak_hour: int = 20
    weekend_dip: float = 0.03
    n_event_days: int = 8
    event_boost: float = 0.08
    noise: float = 0.01

    def __post_init__(self) -> None:
        if not 0.0 < self.mean_utilization < 1.0:
            raise ValueError(f"mean_utilization must be in (0,1), got {self.mean_utilization}")
        if self.diurnal_swing < 0 or self.diurnal_swing >= 1.0:
            raise ValueError(f"diurnal_swing must be in [0,1), got {self.diurnal_swing}")
        if not 0 <= self.peak_hour < HOURS_PER_DAY:
            raise ValueError(f"peak_hour must be in 0..23, got {self.peak_hour}")
        for name in ("weekend_dip", "event_boost", "noise"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.n_event_days < 0:
            raise ValueError(f"n_event_days must be non-negative, got {self.n_event_days}")


#: Profile matching the paper's Google/Borg comparison series (15-point swing).
GOOGLE_BORG_PROFILE = UtilizationProfile(diurnal_swing=0.15, peak_hour=19)


def synthesize_utilization(
    profile: UtilizationProfile,
    calendar: YearCalendar,
    rng: np.random.Generator,
) -> HourlySeries:
    """One year of hourly fleet CPU utilization in [0.02, 0.98].

    The deterministic daily cycle is a sinusoid peaking at ``peak_hour``;
    weekends dip, randomly chosen event days boost, and Gaussian noise
    jitters each hour.  Bounds are clamped away from 0/1 so the inverse
    power map stays well-defined.
    """
    hours = np.arange(calendar.n_hours)
    hour_of_day = hours % HOURS_PER_DAY
    day = hours // HOURS_PER_DAY

    diurnal = (profile.diurnal_swing / 2.0) * np.cos(
        2.0 * np.pi * (hour_of_day - profile.peak_hour) / HOURS_PER_DAY
    )

    jan1_weekday = calendar.weekday(0)
    weekday = (jan1_weekday + day) % 7
    weekend = np.where(weekday >= 5, -profile.weekend_dip, 0.0)

    event = np.zeros(calendar.n_hours)
    if profile.n_event_days > 0:
        event_days = rng.choice(calendar.n_days, size=profile.n_event_days, replace=False)
        event_mask = np.isin(day, event_days)
        event[event_mask] = profile.event_boost

    noise = rng.normal(0.0, profile.noise, calendar.n_hours)
    utilization = profile.mean_utilization + diurnal + weekend + event + noise
    return HourlySeries(
        np.clip(utilization, 0.02, 0.98), calendar, name="cpu utilization"
    )


@dataclass(frozen=True)
class DatacenterDemand:
    """A datacenter's synthesized demand: utilization, power, and fleet model.

    Attributes
    ----------
    site:
        The Table-1 site the trace belongs to.
    utilization:
        Hourly fleet CPU utilization.
    power:
        Hourly facility power, MW.
    fleet:
        The power model that links the two (needed by the scheduler to map
        shifted work back to power and to size extra capacity).
    profile:
        The utilization profile the trace was drawn from.
    """

    site: DatacenterSite
    utilization: HourlySeries
    power: HourlySeries
    fleet: DatacenterPowerModel
    profile: UtilizationProfile = field(default_factory=UtilizationProfile)

    @property
    def avg_power_mw(self) -> float:
        """Average facility power over the year."""
        return self.power.mean()

    def diurnal_power_swing(self) -> float:
        """Average *within-day* relative power swing — the Fig. 3 ~4% number.

        Mean over days of ``(day max - day min) / day mean``; unlike the
        annual swing it is not inflated by events, weekends, or seasons.
        """
        days = self.power.values.reshape(self.power.calendar.n_days, 24)
        return float(((days.max(axis=1) - days.min(axis=1)) / days.mean(axis=1)).mean())

    def diurnal_utilization_swing_points(self) -> float:
        """Average within-day utilization swing, in points (Fig. 3 ~0.20)."""
        days = self.utilization.values.reshape(self.utilization.calendar.n_days, 24)
        return float((days.max(axis=1) - days.min(axis=1)).mean())


def synthesize_demand(
    site: DatacenterSite,
    calendar: YearCalendar,
    profile: UtilizationProfile = UtilizationProfile(),
    seed: int = 0,
) -> DatacenterDemand:
    """Synthesize one year of demand for a Table-1 site.

    The fleet is sized so average facility power matches the site's
    ``avg_power_mw``; the utilization trace then modulates power around that
    mean.  Deterministic in ``(site, calendar, profile, seed)``.
    """
    rng = np.random.default_rng(_demand_seed(site.state, calendar.year, seed))
    utilization = synthesize_utilization(profile, calendar, rng)
    fleet = fleet_for_average_power(
        site.avg_power_mw, avg_utilization=profile.mean_utilization
    )
    power = fleet.power_trace(utilization)
    return DatacenterDemand(
        site=site, utilization=utilization, power=power, fleet=fleet, profile=profile
    )


def _demand_seed(state: str, year: int, base_seed: int) -> int:
    """Stable per-(site, year) seed (process-independent, unlike ``hash``)."""
    digest = 1469598103934665603
    for char in f"dc:{state}:{year}:{base_seed}":
        digest ^= ord(char)
        digest = (digest * 1099511628211) % (1 << 64)
    return digest % (1 << 32)


def meta_and_google_profiles(
    calendar: YearCalendar, seed: int = 0
) -> Tuple[HourlySeries, HourlySeries]:
    """The two diurnal utilization series of Fig. 3 (left): Meta and Google.

    Returns ``(meta_utilization, google_utilization)`` drawn with independent
    noise from the 20-point and 15-point swing profiles respectively.
    """
    rng = np.random.default_rng(_demand_seed("fig3", calendar.year, seed))
    meta = synthesize_utilization(UtilizationProfile(), calendar, rng)
    google = synthesize_utilization(GOOGLE_BORG_PROFILE, calendar, rng)
    return meta.with_name("Meta"), google.with_name("Google")
