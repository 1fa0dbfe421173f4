"""Datacenter substrate: sites, power models, demand synthesis, workloads."""

from .demand import (
    GOOGLE_BORG_PROFILE,
    DatacenterDemand,
    UtilizationProfile,
    meta_and_google_profiles,
    synthesize_demand,
    synthesize_utilization,
)
from .locations import (
    DATACENTER_SITES,
    SITE_ORDER,
    DatacenterSite,
    get_site,
    regional_investment,
    total_fleet_investment,
)
from .turbo import (
    CapacityComparison,
    TurboBoostModel,
    compare_turbo_vs_servers,
)
from .power_model import (
    DEFAULT_SERVER_IDLE_FRACTION,
    DEFAULT_SERVER_PEAK_W,
    DatacenterPowerModel,
    ServerModel,
    fleet_for_average_power,
)
from .workloads import (
    DATA_PROCESSING_FLEET_FRACTION,
    DEFAULT_FLEXIBLE_WORKLOAD_RATIO,
    WORKLOAD_TIERS,
    FlexibilityModel,
    WorkloadTier,
    flexible_fraction_within,
)

__all__ = [
    "GOOGLE_BORG_PROFILE",
    "DatacenterDemand",
    "UtilizationProfile",
    "meta_and_google_profiles",
    "synthesize_demand",
    "synthesize_utilization",
    "DATACENTER_SITES",
    "SITE_ORDER",
    "DatacenterSite",
    "get_site",
    "regional_investment",
    "total_fleet_investment",
    "CapacityComparison",
    "TurboBoostModel",
    "compare_turbo_vs_servers",
    "DEFAULT_SERVER_IDLE_FRACTION",
    "DEFAULT_SERVER_PEAK_W",
    "DatacenterPowerModel",
    "ServerModel",
    "fleet_for_average_power",
    "DATA_PROCESSING_FLEET_FRACTION",
    "DEFAULT_FLEXIBLE_WORKLOAD_RATIO",
    "WORKLOAD_TIERS",
    "FlexibilityModel",
    "WorkloadTier",
    "flexible_fraction_within",
]
