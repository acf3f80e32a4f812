"""Tests for the one threshold front end of every coverage route: the
analytic macro and PPP coverage, both Monte Carlo samplers and the
command line take a threshold, and refuse one, alike."""

import json
import math

import numpy as np
import pytest

from tddgeom import (
    ConfigError,
    MacroNetwork,
    PropagationParams,
    SmallCellScenario,
    TddMix,
    coverage_macro,
    coverage_ppp_dl,
    coverage_ppp_ul,
    mc_coverage_macro,
    mc_coverage_ppp,
)
from tddgeom.cli import main
from tddgeom.config import FAST_QUAD
from tddgeom.params import thresholds
from tddgeom.ppp_model import QuadratureControl

_QUAD = QuadratureControl(**FAST_QUAD)
_SCENARIO = SmallCellScenario(mix=TddMix(alpha_d=0.5))
_ANALYTIC = {
    "macro-dl": lambda g: coverage_macro(g, "dl", MacroNetwork(), PropagationParams(), TddMix(alpha_d=0.5)),
    "macro-ul": lambda g: coverage_macro(g, "ul", MacroNetwork(), PropagationParams(), TddMix(alpha_d=0.5)),
    "ppp-dl": lambda g: coverage_ppp_dl(g, _SCENARIO, _QUAD),
    "ppp-ul": lambda g: coverage_ppp_ul(g, _SCENARIO, _QUAD),
}
_MONTE_CARLO = {
    "macro": lambda grid: mc_coverage_macro(MacroNetwork(rings=2), PropagationParams(), TddMix(alpha_d=0.5), "dl",
                                            grid, 100, seed=1),
    "ppp": lambda grid: mc_coverage_ppp(_SCENARIO, "ul", grid, 100, seed=1),
}
# not finite, beyond +-1,000 dB, and 2,990 dB, where the analytic routes
# overflowed or warned before they shared one front end
_BAD = [math.nan, math.inf, -math.inf, 4000.0, 2990.0, -4000.0, 1000.5]


def test_each_threshold_takes_its_own_float_power_in_any_grid():
    grid = np.linspace(-30.0, 30.0, 6001)
    gamma, scalar = thresholds(grid[::-1])
    assert not scalar
    assert gamma[::-1].tolist() == [10.0 ** (g / 10.0) for g in grid.tolist()]
    gamma, scalar = thresholds(-3.7)
    assert scalar and gamma.tolist() == [10.0 ** (-3.7 / 10.0)]
    assert thresholds([])[0].shape == (0,)
    with pytest.raises(ValueError, match="1-D"):
        thresholds(np.zeros((2, 2)))


@pytest.mark.parametrize("bad", _BAD)
def test_every_route_refuses_a_bad_threshold_alike(bad):
    message = f"gamma_db must be finite and in [-1000, 1000] dB, got {bad}"
    for route in _ANALYTIC.values():
        for gamma_db in (bad, [0.0, bad, -5.0]):
            with pytest.raises(ValueError) as excinfo:
                route(gamma_db)
            assert str(excinfo.value) == message
    for sampler in _MONTE_CARLO.values():
        with pytest.raises(ConfigError) as excinfo:
            sampler([0.0, bad] if bad > 0 else [bad, 0.0])
        assert str(excinfo.value) == (
            f"gamma_grid_db: thresholds must be finite and within [-1000, 1000] dB, got {bad}")


@pytest.mark.parametrize("bad", [True, "5", np.array([True]), [0.0, True], (-5.0, "5")],
                         ids=["bool", "string", "bool-array", "bool-entry", "string-entry"])
def test_every_route_refuses_a_bool_or_a_string(bad):
    # a bool is not 1 dB and a string is not a number, as in every other
    # numeric input
    for route in (thresholds, *_ANALYTIC.values()):
        with pytest.raises(ValueError, match="gamma_db must be real numbers, got "):
            route(bad)
    for sampler in _MONTE_CARLO.values():
        with pytest.raises(ConfigError, match="gamma_grid_db: "):
            sampler(bad)


@pytest.mark.filterwarnings("error")
def test_every_route_is_exact_at_the_edges_of_the_range():
    for name, route in _ANALYTIC.items():
        low, high = route([-1000.0, 1000.0])
        assert 1.0 - 1e-15 <= low <= 1.0 and 0.0 <= high < 1e-50, name
    for sampler in _MONTE_CARLO.values():
        assert sampler([-1000.0, 1000.0]).value.tolist() == [1.0, 0.0]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", _BAD)
@pytest.mark.parametrize("mode", ["analytic", "mc", "both"])
@pytest.mark.parametrize("geometry", ["macro", "ppp"])
def test_cli_refuses_a_bad_threshold_with_exit_2(tmp_path, capsys, geometry, mode, bad):
    path = tmp_path / "bad.json"
    grid = [0.0, bad] if bad > 0 else [bad, 0.0]
    path.write_text(json.dumps({"geometry": geometry, "mode": mode, "gamma_grid_db": grid, "n_draws": 100}),
                    encoding="utf-8")
    assert main(["run", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: invalid config:\n  gamma_grid_db: thresholds must be finite and within")
    assert "Traceback" not in err
    assert not (tmp_path / f"{geometry}-coverage-dl.csv").exists()
