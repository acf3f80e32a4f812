"""Interference and coverage analysis for dynamic-TDD cellular
networks: an infinite hexagonal macro layout with exact interference
series, and a Poisson small-cell layout with quadrature and Monte
Carlo estimators, behind one configuration-driven command line."""

__version__ = "0.1.0"

from .acceptance import validate
from .config import (
    RECIPES,
    ExperimentConfig,
    config_from_dict,
    dump_config,
    load_config,
    run,
    run_recipe,
)
from .errors import ConfigError, IntegrationError, TddgeomError, TruncationError
from .hexgrid import (
    bruteforce_isr_dl,
    bruteforce_isr_ul_dl,
    lattice_points,
    lattice_sum,
    macro_interference_draws,
    mc_coverage_macro,
)
from .macro_analytic import (
    IsrBreakdown,
    a1,
    a2,
    beta_h,
    coverage_macro,
    downlink_inverse_sinr,
    inv_d,
    inv_u,
    isr_dl_dl,
    isr_total,
    isr_ul_dl,
    sinr_dl,
    sinr_ul,
    uplink_inverse_sinr,
)
from .params import (
    CoverageCurve,
    MacroNetwork,
    MobilePolar,
    PropagationParams,
    TddMix,
)
from .ppp_ase import ase
from .ppp_model import (
    QuadratureControl,
    SmallCellScenario,
    coverage_ppp_dl,
    coverage_ppp_ul,
    laplace_dl,
    laplace_ul,
    mc_coverage_ppp,
    mc_laplace_ppp,
    mc_sinr_ppp,
    ppp_interference_draws,
)
from .specfun import (
    SeriesControl,
    ShadowingSpec,
    hurwitz_zeta,
    omega,
    shadowing_mean_factor,
    sum_series,
)

__all__ = [
    "RECIPES",
    "ExperimentConfig",
    "config_from_dict",
    "dump_config",
    "load_config",
    "run",
    "run_recipe",
    "validate",
    "ConfigError",
    "IntegrationError",
    "TddgeomError",
    "TruncationError",
    "bruteforce_isr_dl",
    "bruteforce_isr_ul_dl",
    "lattice_points",
    "lattice_sum",
    "macro_interference_draws",
    "mc_coverage_macro",
    "IsrBreakdown",
    "a1",
    "a2",
    "beta_h",
    "coverage_macro",
    "downlink_inverse_sinr",
    "inv_d",
    "inv_u",
    "isr_dl_dl",
    "isr_total",
    "isr_ul_dl",
    "sinr_dl",
    "sinr_ul",
    "uplink_inverse_sinr",
    "CoverageCurve",
    "MacroNetwork",
    "MobilePolar",
    "PropagationParams",
    "TddMix",
    "QuadratureControl",
    "SmallCellScenario",
    "ase",
    "coverage_ppp_dl",
    "coverage_ppp_ul",
    "laplace_dl",
    "laplace_ul",
    "mc_coverage_ppp",
    "mc_laplace_ppp",
    "mc_sinr_ppp",
    "ppp_interference_draws",
    "SeriesControl",
    "ShadowingSpec",
    "hurwitz_zeta",
    "omega",
    "shadowing_mean_factor",
    "sum_series",
    "__version__",
]
