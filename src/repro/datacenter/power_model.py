"""Energy-proportional server and datacenter power models (paper §3.1, §4.3).

The paper models server power "as a linear function of utilization with the
y-intercept denoting a server's idle power" (Fig. 3 shows the resulting
CPU/power correlation for Meta's fleet).  At datacenter scale the power
swing is much smaller than the utilization swing — ~4% vs ~20% — because of
the idle intercept, cooling/power-delivery overheads (PUE), and non-compute
loads that do not track CPU.  This module provides both levels:

* :class:`ServerModel` — one machine's linear utilization→power curve, with
  the HPE ProLiant DL360 Gen10 defaults the paper uses as its embodied-carbon
  proxy (85 W TDP).
* :class:`DatacenterPowerModel` — a homogeneous fleet plus PUE and a constant
  non-IT load, with the inverse map needed by the scheduler (shifted *work*
  moves utilization, which maps back to power).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..timeseries import HourlySeries

#: The paper's proxy server: HPE ProLiant DL360 Gen10, single-socket, 48 GB
#: DRAM, 85 W TDP.  Wall power at full load exceeds CPU TDP; 250 W is a
#: representative full-system peak for this class of machine.
DEFAULT_SERVER_PEAK_W = 250.0

#: Idle power as a fraction of peak.  Deliberately high: at fleet scale the
#: "server" aggregates DRAM, storage, and fans that barely track CPU, and the
#: paper's Fig. 3 shows only a ~4% facility power swing for a ~20-point
#: utilization swing.
DEFAULT_SERVER_IDLE_FRACTION = 0.65


@dataclass(frozen=True)
class ServerModel:
    """Linear utilization→power model for a single server.

    ``power(u) = idle_w + (peak_w - idle_w) * u`` for utilization
    ``u in [0, 1]``.
    """

    peak_w: float = DEFAULT_SERVER_PEAK_W
    idle_w: float = DEFAULT_SERVER_PEAK_W * DEFAULT_SERVER_IDLE_FRACTION

    def __post_init__(self) -> None:
        if self.peak_w <= 0:
            raise ValueError(f"peak_w must be positive, got {self.peak_w}")
        if not 0 <= self.idle_w <= self.peak_w:
            raise ValueError(
                f"idle_w must be in [0, peak_w], got idle={self.idle_w}, peak={self.peak_w}"
            )

    @property
    def dynamic_range_w(self) -> float:
        """Peak minus idle power — the utilization-proportional part."""
        return self.peak_w - self.idle_w

    def power_w(self, utilization: float) -> float:
        """Wall power (W) at a given utilization in [0, 1]."""
        if not 0.0 <= utilization <= 1.0:
            raise ValueError(f"utilization must be in [0, 1], got {utilization}")
        return self.idle_w + self.dynamic_range_w * utilization


@dataclass(frozen=True)
class DatacenterPowerModel:
    """A homogeneous server fleet plus facility overheads.

    Facility power is ``pue * (IT power) + non_it_mw``:

    * ``n_servers`` identical :class:`ServerModel` machines;
    * ``pue`` — power usage effectiveness multiplier on IT power (cooling,
      power delivery);
    * ``non_it_mw`` — constant load that does not track CPU (network gear,
      storage, lighting).  This constant share is what compresses a ~20%
      utilization swing into the ~4% facility power swing of Fig. 3.
    """

    n_servers: int
    server: ServerModel = ServerModel()
    pue: float = 1.10
    non_it_mw: float = 0.0

    def __post_init__(self) -> None:
        if self.n_servers <= 0:
            raise ValueError(f"n_servers must be positive, got {self.n_servers}")
        if self.pue < 1.0:
            raise ValueError(f"pue must be >= 1.0, got {self.pue}")
        if self.non_it_mw < 0:
            raise ValueError(f"non_it_mw must be non-negative, got {self.non_it_mw}")

    # ------------------------------------------------------------------
    # Forward map: utilization -> facility power
    # ------------------------------------------------------------------
    def it_power_mw(self, utilization: float) -> float:
        """IT (server) power in MW at fleet-average utilization."""
        return self.n_servers * self.server.power_w(utilization) / 1e6

    def facility_power_mw(self, utilization: float) -> float:
        """Total facility power in MW at fleet-average utilization."""
        return self.pue * self.it_power_mw(utilization) + self.non_it_mw

    @property
    def peak_power_mw(self) -> float:
        """Facility power at 100% utilization — the provisioning limit."""
        return self.facility_power_mw(1.0)

    def power_trace(self, utilization: HourlySeries) -> HourlySeries:
        """Map an hourly utilization trace to facility power (MW)."""
        values = utilization.values
        if values.min() < 0.0 or values.max() > 1.0:
            raise ValueError("utilization trace must lie in [0, 1]")
        it_w = self.server.idle_w + self.server.dynamic_range_w * values
        power = self.pue * self.n_servers * it_w / 1e6 + self.non_it_mw
        return HourlySeries(power, utilization.calendar, name="facility power")


def fleet_for_average_power(
    avg_power_mw: float,
    avg_utilization: float = 0.55,
    server: ServerModel = ServerModel(),
    pue: float = 1.10,
    non_it_share: float = 0.50,
) -> DatacenterPowerModel:
    """Size a fleet so that facility power at ``avg_utilization`` equals
    ``avg_power_mw``.

    ``non_it_share`` is the fraction of average facility power drawn by
    constant non-IT loads; together with the default server idle fraction it
    reproduces the paper's ~4% facility-power swing for a ~20-point
    utilization swing (Fig. 3).
    """
    if avg_power_mw <= 0:
        raise ValueError(f"avg_power_mw must be positive, got {avg_power_mw}")
    if not 0.0 < avg_utilization <= 1.0:
        raise ValueError(f"avg_utilization must be in (0, 1], got {avg_utilization}")
    if not 0.0 <= non_it_share < 1.0:
        raise ValueError(f"non_it_share must be in [0, 1), got {non_it_share}")
    non_it_mw = avg_power_mw * non_it_share
    it_budget_mw = (avg_power_mw - non_it_mw) / pue
    per_server_w = server.power_w(avg_utilization)
    n_servers = max(1, round(it_budget_mw * 1e6 / per_server_w))
    return DatacenterPowerModel(
        n_servers=n_servers, server=server, pue=pue, non_it_mw=non_it_mw
    )
