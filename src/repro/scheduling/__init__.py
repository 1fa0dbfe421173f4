"""Carbon-aware scheduling: greedy CAS, capacity planning, combined heuristic."""

from .capacity import (
    MAX_CAPACITY_MULTIPLE,
    additional_capacity_for_full_coverage,
    deficit_after_scheduling,
)
from .combined import CombinedResult, simulate_combined
from .geographic import (
    FleetSite,
    MigrationResult,
    fleet_sites_from_states,
    migrate_load,
)
from .greedy import ScheduleResult, schedule_carbon_aware
from .optimal import (
    OptimalScheduleResult,
    schedule_optimal,
)
from .tiered import (
    NO_SLO_DEADLINE_HOURS,
    TierPolicy,
    TieredResult,
    policies_from_figure10,
    simulate_tiered,
)

__all__ = [
    "MAX_CAPACITY_MULTIPLE",
    "additional_capacity_for_full_coverage",
    "deficit_after_scheduling",
    "CombinedResult",
    "FleetSite",
    "MigrationResult",
    "fleet_sites_from_states",
    "migrate_load",
    "simulate_combined",
    "ScheduleResult",
    "schedule_carbon_aware",
    "OptimalScheduleResult",
    "schedule_optimal",
    "NO_SLO_DEADLINE_HOURS",
    "TierPolicy",
    "TieredResult",
    "policies_from_figure10",
    "simulate_tiered",
]
