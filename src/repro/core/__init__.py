"""Core of the reproduction: coverage, design space, evaluation, optimizer."""

from .coverage import (
    coverage_from_grid_import,
    coverage_percent,
    hourly_coverage_fraction,
    renewable_coverage,
)
from .allocation import AllocationResult, AllocationStep, allocate_budget
from .design import (
    DesignPoint,
    DesignSpace,
    DesignSpaceError,
    Strategy,
    default_design_space,
)
from .evaluate import (
    DesignEvaluation,
    SiteContext,
    SupplyProjectionCache,
    build_site_context,
    evaluate_design,
)
from .engine import SiteRun, SweepEngine, sweep_chunk_size
from .explorer import CarbonExplorer
from .fleet import (
    FleetInterrupted,
    FleetResult,
    OptimizationResult,
    SiteStatus,
    SiteSweep,
    fleet_checkpoint_path,
    sweep_fleet,
)
from .optimizer import (
    optimize,
    optimize_all_strategies,
    strategy_checkpoint_path,
)
from .shm import (
    SharedContextError,
    SharedSiteContext,
    SiteContextHandle,
    attach_context,
    share_context,
    shared_memory_available,
)
from .pareto import frontier_tail_ratio, knee_point, pareto_frontier
from .refine import RefinementResult, refine_optimize
from .report import ReportOptions, site_report
from .robustness import RobustnessReport, evaluate_across_years
from .sensitivity import (
    PAPER_COEFFICIENT_RANGES,
    SensitivityRecord,
    SensitivityReport,
    sensitivity_analysis,
)

__all__ = [
    "AllocationResult",
    "AllocationStep",
    "allocate_budget",
    "coverage_from_grid_import",
    "coverage_percent",
    "hourly_coverage_fraction",
    "renewable_coverage",
    "DesignPoint",
    "DesignSpace",
    "DesignSpaceError",
    "Strategy",
    "default_design_space",
    "DesignEvaluation",
    "SiteContext",
    "SupplyProjectionCache",
    "build_site_context",
    "evaluate_design",
    "CarbonExplorer",
    "SiteRun",
    "SweepEngine",
    "sweep_chunk_size",
    "FleetInterrupted",
    "FleetResult",
    "SiteStatus",
    "SiteSweep",
    "fleet_checkpoint_path",
    "sweep_fleet",
    "OptimizationResult",
    "optimize",
    "optimize_all_strategies",
    "strategy_checkpoint_path",
    "SharedContextError",
    "SharedSiteContext",
    "SiteContextHandle",
    "attach_context",
    "share_context",
    "shared_memory_available",
    "RefinementResult",
    "refine_optimize",
    "ReportOptions",
    "site_report",
    "RobustnessReport",
    "evaluate_across_years",
    "PAPER_COEFFICIENT_RANGES",
    "SensitivityRecord",
    "SensitivityReport",
    "sensitivity_analysis",
    "frontier_tail_ratio",
    "knee_point",
    "pareto_frontier",
]
