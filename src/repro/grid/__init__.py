"""Grid substrate: fuel registry, balancing authorities, synthetic EIA data."""

from .authorities import (
    BALANCING_AUTHORITIES,
    TABLE1_AUTHORITY_CODES,
    BalancingAuthority,
    DispatchProfile,
    RenewableClass,
    SolarProfile,
    WindProfile,
    get_authority,
)
from .calibration import (
    CalibrationFingerprint,
    fingerprint,
    fingerprint_all,
)
from .curtailment import (
    CISO_BUILDOUT_BY_YEAR,
    CurtailmentRecord,
    curtailment_trendline,
    simulate_historical_curtailment,
)
from .dataset import GridDataset, dispatch, generate_grid_dataset
from .marginal import marginal_intensity_g_per_kwh, signal_divergence_hours
from .pricing import (
    PriceModel,
    hourly_prices,
    price_carbon_alignment,
)
from .scaling import (
    RenewableInvestment,
    projected_supply,
    scale_trace_to_capacity,
)
from .sources import (
    CARBON_INTENSITY_G_PER_KWH,
    EnergySource,
)
from .synthetic import (
    hydro_generation,
    seed_for,
    solar_generation,
    system_demand,
    wind_generation,
)

__all__ = [
    "BALANCING_AUTHORITIES",
    "TABLE1_AUTHORITY_CODES",
    "BalancingAuthority",
    "DispatchProfile",
    "RenewableClass",
    "SolarProfile",
    "WindProfile",
    "get_authority",
    "CalibrationFingerprint",
    "fingerprint",
    "fingerprint_all",
    "CISO_BUILDOUT_BY_YEAR",
    "CurtailmentRecord",
    "curtailment_trendline",
    "simulate_historical_curtailment",
    "GridDataset",
    "dispatch",
    "generate_grid_dataset",
    "marginal_intensity_g_per_kwh",
    "signal_divergence_hours",
    "PriceModel",
    "hourly_prices",
    "price_carbon_alignment",
    "RenewableInvestment",
    "projected_supply",
    "scale_trace_to_capacity",
    "CARBON_INTENSITY_G_PER_KWH",
    "EnergySource",
    "hydro_generation",
    "seed_for",
    "solar_generation",
    "system_demand",
    "wind_generation",
]
