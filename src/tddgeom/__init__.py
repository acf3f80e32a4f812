"""Interference and coverage analysis for dynamic-TDD cellular
networks: an infinite hexagonal macro layout with exact interference
series, and a Poisson small-cell layout with quadrature and Monte
Carlo estimators, behind one configuration-driven command line.

The modules, one role each (each geometry has one that samples and one
that solves):

- params: network, propagation and duplexing parameters, shared checks;
- specfun: Hurwitz zeta, the lattice constant omega and series sums;
- quadrules: nested Gauss-Kronrod rules and their refinement;
- rng: counter-based random streams and the ordered worker map;
- hexgrid: the macro lattice, brute-force ISR and the macro Monte Carlo;
- macro_isr: the macro ISR series;
- macro_analytic: the macro SINR maps, their inverses and coverage;
- ppp_sampler: the small-cell Monte Carlo;
- ppp_model: the small-cell model, its Laplace transform and coverage;
- ppp_ase: the small-cell spectral efficiency;
- config: the config schema and its validation;
- runner: running a config, its output files and the recipes;
- acceptance: the twelve acceptance criteria;
- cli: the command line;
- errors: the exceptions.
"""

__version__ = "0.1.0"

from .acceptance import validate
from .config import ExperimentConfig, config_from_dict, dump_config, load_config
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
    coverage_macro,
    downlink_inverse_sinr,
    inv_d,
    inv_u,
    sinr_dl,
    sinr_ul,
    uplink_inverse_sinr,
)
from .macro_isr import IsrBreakdown, a1, a2, beta_h, isr_dl_dl, isr_total, isr_ul_dl
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
)
from .ppp_sampler import mc_coverage_ppp, mc_laplace_ppp, mc_sinr_ppp, ppp_interference_draws
from .runner import RECIPES, run, run_recipe
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
