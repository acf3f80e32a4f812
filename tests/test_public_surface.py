"""The package's public names: each is defined in exactly one module,
and a move between modules keeps every name the package exports and
every module attribute the benchmark reads."""

import importlib
import pkgutil

import tddgeom

# the 55 names the package exported before its modules were split by role
_EXPORTS = [
    "RECIPES", "ExperimentConfig", "config_from_dict", "dump_config", "load_config", "run", "run_recipe",
    "validate", "ConfigError", "IntegrationError", "TddgeomError", "TruncationError", "bruteforce_isr_dl",
    "bruteforce_isr_ul_dl", "lattice_points", "lattice_sum", "macro_interference_draws", "mc_coverage_macro",
    "IsrBreakdown", "a1", "a2", "beta_h", "coverage_macro", "downlink_inverse_sinr", "inv_d", "inv_u",
    "isr_dl_dl", "isr_total", "isr_ul_dl", "sinr_dl", "sinr_ul", "uplink_inverse_sinr", "CoverageCurve",
    "MacroNetwork", "MobilePolar", "PropagationParams", "TddMix", "QuadratureControl", "SmallCellScenario",
    "ase", "coverage_ppp_dl", "coverage_ppp_ul", "laplace_dl", "laplace_ul", "mc_coverage_ppp",
    "mc_laplace_ppp", "mc_sinr_ppp", "ppp_interference_draws", "SeriesControl", "ShadowingSpec",
    "hurwitz_zeta", "omega", "shadowing_mean_factor", "sum_series", "__version__",
]


def test_the_package_exports_every_name_it_exported():
    assert len(_EXPORTS) == 55
    assert set(_EXPORTS) <= set(tddgeom.__all__)
    for name in _EXPORTS:
        getattr(tddgeom, name)


def test_every_module_defines_the_names_it_exports():
    moved = []
    for info in pkgutil.iter_modules(tddgeom.__path__):
        module = importlib.import_module(f"tddgeom.{info.name}")
        for name in getattr(module, "__all__", ()):
            home = getattr(getattr(module, name), "__module__", module.__name__)
            if home != module.__name__:
                moved.append(f"{module.__name__}.{name} is defined in {home}")
    assert not moved


def test_the_module_attributes_the_benchmark_reads_resolve():
    from tddgeom.config import FAST_QUAD
    from tddgeom.ppp_model import QuadratureControl
    from tddgeom.rng import stream

    assert QuadratureControl(**FAST_QUAD).n_x == FAST_QUAD["n_x"]
    assert stream(1, 0).random() == stream(1, 0).random()
