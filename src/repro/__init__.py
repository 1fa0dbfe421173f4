"""Carbon Explorer reproduction — carbon-aware datacenter design exploration.

A from-scratch Python implementation of the framework described in
"Carbon Explorer: A Holistic Framework for Designing Carbon Aware
Datacenters" (Acun et al., ASPLOS 2023).  The public API is re-exported
here; :class:`CarbonExplorer` is the main entry point:

>>> from repro import CarbonExplorer, Strategy
>>> explorer = CarbonExplorer("UT")          # Utah datacenter, year 2020
>>> round(explorer.avg_power_mw)             # doctest: +SKIP
19

See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from .battery import LFP, Battery, BatterySpec, CellChemistry, simulate_battery
from .carbon import EmbodiedCarbonModel, SupplyScenario
from .core import (
    CarbonExplorer,
    DesignEvaluation,
    DesignPoint,
    DesignSpace,
    DesignSpaceError,
    OptimizationResult,
    SiteContext,
    Strategy,
    build_site_context,
    coverage_percent,
    default_design_space,
    evaluate_design,
    hourly_coverage_fraction,
    knee_point,
    optimize,
    optimize_all_strategies,
    pareto_frontier,
    renewable_coverage,
    sweep_fleet,
)
from .datacenter import (
    DATACENTER_SITES,
    SITE_ORDER,
    DatacenterSite,
    FlexibilityModel,
    UtilizationProfile,
    get_site,
    regional_investment,
)
from .grid import (
    BALANCING_AUTHORITIES,
    EnergySource,
    GridDataset,
    RenewableClass,
    RenewableInvestment,
    generate_grid_dataset,
    get_authority,
    projected_supply,
)
from . import obs, resilience
from .resilience import (
    CheckpointError,
    CheckpointMismatchError,
    FleetFaultPlan,
    SweepInterrupted,
)
from .obs import (
    ProgressTicker,
    configure_logging,
    disable_metrics,
    disable_tracing,
    enable_metrics,
    enable_tracing,
    get_logger,
    metrics_snapshot,
    render_metrics,
    render_trace,
    reset_metrics,
    reset_tracing,
    save_metrics,
    save_trace,
    span,
)
from .scheduling import (
    schedule_carbon_aware,
    simulate_combined,
)
from .timeseries import HourlySeries, YearCalendar

__version__ = "1.0.0"

__all__ = [
    "LFP",
    "Battery",
    "BatterySpec",
    "CellChemistry",
    "simulate_battery",
    "EmbodiedCarbonModel",
    "SupplyScenario",
    "CarbonExplorer",
    "DesignEvaluation",
    "DesignPoint",
    "DesignSpace",
    "DesignSpaceError",
    "OptimizationResult",
    "SiteContext",
    "Strategy",
    "build_site_context",
    "coverage_percent",
    "default_design_space",
    "evaluate_design",
    "hourly_coverage_fraction",
    "knee_point",
    "optimize",
    "optimize_all_strategies",
    "pareto_frontier",
    "renewable_coverage",
    "sweep_fleet",
    "DATACENTER_SITES",
    "SITE_ORDER",
    "DatacenterSite",
    "FlexibilityModel",
    "UtilizationProfile",
    "get_site",
    "regional_investment",
    "BALANCING_AUTHORITIES",
    "EnergySource",
    "GridDataset",
    "RenewableClass",
    "RenewableInvestment",
    "generate_grid_dataset",
    "get_authority",
    "projected_supply",
    "schedule_carbon_aware",
    "simulate_combined",
    "HourlySeries",
    "YearCalendar",
    "obs",
    "resilience",
    "CheckpointError",
    "CheckpointMismatchError",
    "FleetFaultPlan",
    "SweepInterrupted",
    "ProgressTicker",
    "configure_logging",
    "disable_metrics",
    "disable_tracing",
    "enable_metrics",
    "enable_tracing",
    "get_logger",
    "metrics_snapshot",
    "render_metrics",
    "render_trace",
    "reset_metrics",
    "reset_tracing",
    "save_metrics",
    "save_trace",
    "span",
    "__version__",
]
