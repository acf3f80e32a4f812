"""Tests for the one domain rule of every model argument: a dataclass
field, an argument of an analytic function or a sampler's seed is a
real number (an integer where it counts) inside an interval.  NaN, a
bool, a string and an integer beyond the double range are not real
numbers and raise TypeError; a real number outside the interval raises
ValueError.  The command line turns both into exit 2."""

import json
import math

import numpy as np
import pytest

from tddgeom import (
    MacroNetwork,
    MobilePolar,
    PropagationParams,
    QuadratureControl,
    SeriesControl,
    ShadowingSpec,
    SmallCellScenario,
    TddMix,
    a1,
    a2,
    beta_h,
    config_from_dict,
    coverage_macro,
    coverage_ppp_dl,
    downlink_inverse_sinr,
    hurwitz_zeta,
    inv_d,
    inv_u,
    isr_dl_dl,
    isr_total,
    isr_ul_dl,
    lattice_sum,
    mc_coverage_macro,
    mc_coverage_ppp,
    mc_laplace_ppp,
    mc_sinr_ppp,
    omega,
    sinr_dl,
    sinr_ul,
    uplink_inverse_sinr,
)
from tddgeom import rng
from tddgeom.cli import main
from tddgeom.config import FAST_QUAD

_XR = 1.0 / math.sqrt(3.0)
_MODEL = (MacroNetwork(), PropagationParams(), TddMix(alpha_d=0.5))
_SCENARIO = SmallCellScenario(mix=TddMix(alpha_d=0.5))
# a value of the uplink map above its maximum, at the cell edge
_ABOVE_UPLINK_EDGE = 2.0 * uplink_inverse_sinr(_MODEL[0].x_edge, *_MODEL)


def _field(cls, name, outside, **base):
    return lambda v: cls(**dict(base, **{name: v})), outside


# argument -> (a call that takes the argument's value, a real value
# outside its domain)
_ARGUMENTS = {
    "two_b": _field(PropagationParams, "two_b", 2.0),
    "a_db": _field(PropagationParams, "a_db", math.inf),
    "k": _field(PropagationParams, "k", 1.5),
    "p_dl_dbm": _field(PropagationParams, "p_dl_dbm", math.inf),
    "p_star_dbm": _field(PropagationParams, "p_star_dbm", math.inf),
    "p_noise_dbm": _field(PropagationParams, "p_noise_dbm", math.inf),
    "delta": _field(MacroNetwork, "delta", 0.0),
    "cell_radius": _field(MacroNetwork, "cell_radius", 0.6),
    "rings": _field(MacroNetwork, "rings", 0),
    "load_eta": _field(MacroNetwork, "load_eta", 0.0),
    "alpha_d": _field(TddMix, "alpha_d", -0.1),
    "r": _field(MobilePolar, "r", -0.1),
    "theta": _field(MobilePolar, "theta", math.inf, r=0.3),
    "lam": _field(SmallCellScenario, "lam", 0.0),
    "window_radius": _field(SmallCellScenario, "window_radius", -1.0),
    "p_small_dbm": _field(SmallCellScenario, "p_small_dbm", math.inf),
    "p_small_star_dbm": _field(SmallCellScenario, "p_small_star_dbm", math.inf),
    "inner_abs_tol": _field(QuadratureControl, "inner_abs_tol", 0.0),
    "outer_abs_tol": _field(QuadratureControl, "outer_abs_tol", math.inf),
    "ase_rel_tol": _field(QuadratureControl, "ase_rel_tol", -1e-4),
    "n_theta": _field(QuadratureControl, "n_theta", 1),
    "n_rho": _field(QuadratureControl, "n_rho", 1),
    "n_x": _field(QuadratureControl, "n_x", 0),
    "n_serving": _field(QuadratureControl, "n_serving", 1),
    "max_refinements": _field(QuadratureControl, "max_refinements", -1),
    "rel_tol": _field(SeriesControl, "rel_tol", 0.0),
    "max_terms": _field(SeriesControl, "max_terms", 0),
    "sigma_tilde_db": _field(ShadowingSpec, "sigma_tilde_db", -1.0),
    "isr_dl_dl-x": (lambda v: isr_dl_dl(v, 1.75), 1.0),
    "isr_dl_dl-b": (lambda v: isr_dl_dl(0.3, v), 1.0),
    "beta_h-h": (lambda v: beta_h(v, 1.75, 0.4, _XR), -1),
    "beta_h-b": (lambda v: beta_h(0, v, 0.4, _XR), 1.0),
    "beta_h-k": (lambda v: beta_h(0, 1.75, v, _XR), 1.5),
    "beta_h-r_over_delta": (lambda v: beta_h(0, 1.75, 0.4, v), 0.0),
    "isr_ul_dl-x": (lambda v: isr_ul_dl(v, 1.75, 0.4, 0.5, 1e-4), -0.1),
    "isr_ul_dl-b": (lambda v: isr_ul_dl(0.3, v, 0.4, 0.5, 1e-4), 0.9),
    "isr_ul_dl-k": (lambda v: isr_ul_dl(0.3, 1.75, v, 0.5, 1e-4), -0.5),
    "isr_ul_dl-r_over_delta": (lambda v: isr_ul_dl(0.3, 1.75, 0.4, v, 1e-4), 0.6),
    "isr_ul_dl-p_star_over_p": (lambda v: isr_ul_dl(0.3, 1.75, 0.4, 0.5, v), math.inf),
    "isr_ul_dl-delta": (lambda v: isr_ul_dl(0.3, 1.75, 0.4, 0.5, 1e-4, delta=v), 0.0),
    "a1-b": (lambda v: a1(v, 0.4, 0.5), 1.0),
    "a1-k": (lambda v: a1(1.75, v, 0.5), 1.5),
    "a1-r_over_delta": (lambda v: a1(1.75, 0.4, v), 0.6),
    "a2-b": (lambda v: a2(v, 0.4, 1.0), 0.9),
    "a2-k": (lambda v: a2(1.75, v, 1.0), 1.5),
    "a2-p_over_pstar": (lambda v: a2(1.75, 0.4, v), -1.0),
    "a2-delta": (lambda v: a2(1.75, 0.4, 1.0, v), 0.0),
    "downlink_inverse_sinr-x": (lambda v: downlink_inverse_sinr(v, *_MODEL), 0.6),
    "uplink_inverse_sinr-x": (lambda v: uplink_inverse_sinr(v, *_MODEL), -0.1),
    "sinr_dl-x": (lambda v: sinr_dl(v, *_MODEL), -0.1),
    "sinr_ul-x": (lambda v: sinr_ul(v, *_MODEL), -0.1),
    "inv_d-y": (lambda v: inv_d(v, *_MODEL), 0.0),
    "inv_u-y": (lambda v: inv_u(v, *_MODEL), _ABOVE_UPLINK_EDGE),
    "hurwitz_zeta-s": (lambda v: hurwitz_zeta(v, 1), 1.0),
    "hurwitz_zeta-q": (lambda v: hurwitz_zeta(2.0, v), 0.0),
    "omega-z": (omega, 1.0),
    "lattice_sum-exponent": (lambda v: lattice_sum(MacroNetwork(rings=2), v), 2.0),
    "mc_laplace_ppp-v": (lambda v: mc_laplace_ppp(v, 0.1, _SCENARIO, "dl", 10, 1), -1.0),
    "mc_laplace_ppp-r": (lambda v: mc_laplace_ppp(1e8, v, _SCENARIO, "dl", 10, 1), -1.0),
    "mc_laplace_ppp-n_draws": (lambda v: mc_laplace_ppp(1e8, 0.1, _SCENARIO, "dl", v, 1), 0),
    "mc_laplace_ppp-seed": (lambda v: mc_laplace_ppp(1e8, 0.1, _SCENARIO, "dl", 10, v), 2**64),
    "Streams-seed": (rng.Streams, -1),
}


@pytest.mark.parametrize("case, error", [("nan", TypeError), ("bool", TypeError), ("outside", ValueError)])
@pytest.mark.parametrize("argument", list(_ARGUMENTS))
def test_every_model_argument_refuses_nan_a_bool_and_a_value_outside_its_domain(argument, case, error):
    call, outside = _ARGUMENTS[argument]
    value = {"nan": math.nan, "bool": True, "outside": outside}[case]
    with pytest.raises(error) as excinfo:
        call(value)
    # the message names the argument
    assert str(excinfo.value).startswith(f"{argument.split('-')[-1]} must "), str(excinfo.value)


@pytest.mark.parametrize("call, error", [
    (lambda: beta_h(0.5, 1.75, 0.4, _XR), TypeError),
    (lambda: uplink_inverse_sinr(0.6, *_MODEL), ValueError),
    (lambda: sinr_ul(0.6, *_MODEL), ValueError),
    (lambda: mc_laplace_ppp(math.inf, 0.1, _SCENARIO, "dl", 10, 1), ValueError),
    (lambda: mc_laplace_ppp(1e8, math.inf, _SCENARIO, "dl", 10, 1), ValueError),
    (lambda: rng.Streams(2**64), ValueError),
    (lambda: rng.Streams(1.5), TypeError),
    (lambda: PropagationParams(two_b=10**400), TypeError),
    (lambda: MacroNetwork(delta=-10**400), TypeError),
], ids=["beta_h-half-index", "uplink-map-past-the-edge", "sinr_ul-past-the-edge", "mc_laplace_ppp-v-inf",
        "mc_laplace_ppp-r-inf", "seed-2**64", "seed-1.5", "two_b-400-digits", "delta-400-digits"])
def test_more_values_outside_a_domain_are_refused(call, error):
    with pytest.raises(error, match=" must "):
        call()


def test_an_integer_that_a_double_holds_is_a_real_number():
    assert PropagationParams(two_b=4, k=0, a_db=130).b == 2.0
    assert omega(10**300) == 1.0
    assert MacroNetwork(delta=2, cell_radius=1).x_edge == 0.5


@pytest.mark.parametrize("call, message", [
    (lambda: PropagationParams(p_star_dbm=4000.0), "p_star_dbm - a_db is 3870 dB"),
    (lambda: PropagationParams(p_dl_dbm=-3100.0, a_db=-200.0), "p_star_dbm - p_dl_dbm is 3120 dB"),
    (lambda: PropagationParams(p_noise_dbm=3100.0), "p_noise_dbm is 3100 dB"),
    (lambda: SmallCellScenario(p_small_star_dbm=3300.0), "p_small_star_dbm - a_db is 3170 dB"),
], ids=["p_star", "p_star-over-p_dl", "p_noise", "p_small_star"])
def test_a_finite_power_whose_linear_value_overflows_is_refused(call, message):
    with pytest.raises(ValueError, match=f"^{message}: its linear value overflows a double$"):
        call()
    # a power just inside the double range and a silent one are powers
    assert PropagationParams(p_star_dbm=3000.0).p_star_over_p == 10.0**294
    assert PropagationParams(p_dl_dbm=-math.inf, p_star_dbm=3000.0).p_star_over_p == math.inf


@pytest.mark.parametrize("call, message", [
    (lambda: PropagationParams(p_star_dbm=-3000.0, p_dl_dbm=300.0), "p_star_dbm - a_db is -3130 dB"),
    (lambda: PropagationParams(p_dl_dbm=-3100.0), "p_dl_dbm - a_db is -3230 dB"),
    (lambda: PropagationParams(p_star_dbm=2900.0, p_dl_dbm=6000.0, a_db=3000.0), "p_star_dbm - p_dl_dbm is -3100 dB"),
    (lambda: PropagationParams(p_noise_dbm=-3100.0), "p_noise_dbm is -3100 dB"),
    (lambda: SmallCellScenario(p_small_dbm=-3000.0), "p_small_dbm - a_db is -3130 dB"),
    (lambda: SmallCellScenario(p_small_star_dbm=-2950.0), "p_small_star_dbm - a_db is -3080 dB"),
], ids=["p_star", "p_dl", "p_star-over-p_dl", "p_noise", "p_small", "p_small_star"])
def test_a_finite_power_whose_linear_value_is_not_a_normal_double_is_refused(call, message):
    with pytest.raises(ValueError, match=f"^{message}: its linear value underflows a double$"):
        call()
    # a power just inside the normal range and a silent one are powers
    assert PropagationParams(p_noise_dbm=-3076.0).p_noise_mw == 10.0**-307.6
    assert PropagationParams(p_noise_dbm=-math.inf).p_noise_mw == 0.0


_POWERS = ("p_dl_dbm", "p_star_dbm", "p_noise_dbm")
# the serving link of each direction silenced
_SILENT = {"dl": {"p_dl_dbm": -math.inf}, "ul": {"p_star_dbm": -math.inf}}


def test_every_power_may_be_silent():
    for name in _POWERS:
        assert config_from_dict({"propagation": {name: -math.inf}}).prop.p_noise_mw >= 0.0
    for name in ("p_small_dbm", "p_small_star_dbm"):
        assert config_from_dict({"geometry": "ppp", "ppp": {name: -math.inf}}).scenario()


@pytest.mark.parametrize("direction", ["dl", "ul"])
def test_a_silent_serving_link_has_coverage_zero_and_no_map(direction):
    prop = PropagationParams(**_SILENT[direction])
    net, mix = MacroNetwork(rings=2), TddMix(alpha_d=0.5)
    assert coverage_macro(0.0, direction, net, prop, mix) == 0.0
    assert coverage_macro([-30.0, 0.0], direction, net, prop, mix).tolist() == [0.0, 0.0]
    assert mc_coverage_macro(net, prop, mix, direction, [-30.0, 0.0], 50, 1).value.tolist() == [0.0, 0.0]
    name = next(iter(_SILENT[direction]))
    maps = (downlink_inverse_sinr, sinr_dl, inv_d) if direction == "dl" else (uplink_inverse_sinr, sinr_ul, inv_u)
    for fn in maps:
        for value in (0.0, 0.3):
            with pytest.raises(ValueError, match=f"{name} is -inf dBm: the serving link is silent"):
                fn(value, net, prop, mix)
    # every ISR is a ratio to the serving power of its direction
    with pytest.raises(ValueError, match=f"{name} is -inf dBm"):
        isr_total(MobilePolar(0.3), net, prop, mix)


# downlink with every interferer in uplink and silent, and no noise
_NO_FIELD = PropagationParams(p_star_dbm=-math.inf, p_noise_dbm=-math.inf)
_ALL_UL = TddMix(alpha_d=0.0)
_NO_FIELD_PPP = SmallCellScenario(p_small_star_dbm=-math.inf, prop=_NO_FIELD, mix=_ALL_UL)
_GRID = [-10.0, 0.0, 10.0]


@pytest.mark.parametrize("call, expected", [
    (lambda: mc_coverage_macro(MacroNetwork(rings=2), _NO_FIELD, _ALL_UL, "dl", _GRID, 200, 1).value, 1.0),
    (lambda: coverage_macro(_GRID, "dl", MacroNetwork(rings=2), _NO_FIELD, _ALL_UL), 1.0),
    (lambda: mc_coverage_ppp(_NO_FIELD_PPP, "dl", _GRID, 200, 1).value, 1.0),
    (lambda: mc_coverage_ppp(_NO_FIELD_PPP, "dl", _GRID, 200, 1, association="nearest").value, 1.0),
    (lambda: coverage_ppp_dl(_GRID, _NO_FIELD_PPP), 1.0),
    (lambda: mc_sinr_ppp(_NO_FIELD_PPP, "dl", 200, 1), math.inf),
    # a serving distance of 0 is the limit from above
    (lambda: mc_laplace_ppp(0.5, 0.0, _SCENARIO, "dl", 200, 1), mc_laplace_ppp(0.5, 1e-60, _SCENARIO, "dl", 200, 1)),
    (lambda: mc_laplace_ppp(0.5, 0.0, _SCENARIO, "ul", 200, 1), mc_laplace_ppp(0.5, 1e-60, _SCENARIO, "ul", 200, 1)),
], ids=["mc-macro", "macro", "mc-ppp", "mc-ppp-nearest", "ppp", "mc-sinr-ppp", "mc-laplace-dl", "mc-laplace-ul"])
def test_a_silent_field_and_a_zero_serving_distance_warn_nowhere(call, expected):
    # the SINR over a silent field with no noise is +inf, which covers;
    # a leaked divide-by-zero warning fails the suite
    value = call()
    np.testing.assert_allclose(value, np.broadcast_to(expected, np.shape(value)), rtol=1e-12)


def _run(tmp_path, tree):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(tree), encoding="utf-8")
    out = tmp_path / "out"
    return main(["run", str(path), "--out", str(out)]), out


@pytest.mark.parametrize("direction", ["dl", "ul"])
def test_cli_runs_a_silent_serving_link_to_coverage_zero(tmp_path, capsys, direction):
    code, out = _run(tmp_path, {"propagation": _SILENT[direction], "direction": direction, "mode": "both",
                                "gamma_grid_db": [-30.0, 0.0, 10.0], "macro": {"rings": 2}, "n_draws": 200})
    assert code == 0
    lines = (out / f"macro-coverage-{direction}.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "gamma_db,value_analytic,ci_halfwidth_analytic,value_mc,ci_halfwidth_mc"
    assert [row.split(",")[1:] for row in lines[1:]] == [["0.0"] * 4] * 3


# PPP configs at the edges of the float range: a threshold of 1000 dB
# over a serving power near the smallest normal double drives v past it,
# and a tiny interfering power drives the kernel's table power past it;
# id -> (tree, direction, coverage at 0 and 1000 dB, or None where the
# Monte Carlo checks the value at 0 dB and 1000 dB covers nothing)
_FLOAT_EDGES = {
    "a_db-2999-dl": ({"propagation": {"a_db": 2999}}, "dl", 0.0),
    "a_db-2999-ul": ({"propagation": {"a_db": 2999}}, "ul", 0.0),
    "tiny-serving-dl": ({"mix": {"alpha_d": 0.5}, "ppp": {"p_small_dbm": -2900}}, "dl", 0.0),
    "tiny-serving-ul": ({"mix": {"alpha_d": 0.5}, "ppp": {"p_small_star_dbm": -2900}}, "ul", 0.0),
    "no-field-no-noise": ({"mix": {"alpha_d": 0}, "ppp": {"p_small_dbm": -2900, "p_small_star_dbm": -math.inf},
                           "propagation": {"p_noise_dbm": -math.inf}}, "dl", 1.0),
    "no-noise-tiny-serving-ul": ({"mix": {"alpha_d": 0.5}, "ppp": {"p_small_star_dbm": -2900},
                                  "propagation": {"p_noise_dbm": -math.inf}}, "ul", 0.0),
    "tiny-field-ul": ({"mix": {"alpha_d": 0.5}, "ppp": {"p_small_dbm": -2900}}, "ul", None),
    "tiny-field-dl": ({"mix": {"alpha_d": 0.5}, "ppp": {"p_small_star_dbm": -2900}}, "dl", None),
    # a turnover area past the float range is fully interfered
    "huge-area-dl": ({"mix": {"alpha_d": 0.5}, "propagation": {"a_db": 0, "p_noise_dbm": -math.inf},
                      "ppp": {"p_small_dbm": -2000, "p_small_star_dbm": 2900}}, "dl", 0.0),
    "huge-area-ul": ({"mix": {"alpha_d": 0.5}, "propagation": {"a_db": 0, "p_noise_dbm": -math.inf},
                      "ppp": {"p_small_dbm": 2900, "p_small_star_dbm": -2000}}, "ul", 0.0),
}


@pytest.mark.parametrize("case", list(_FLOAT_EDGES))
def test_cli_runs_ppp_coverage_at_the_edges_of_the_float_range(tmp_path, case):
    # a v that overflows takes its limit and a dead pair takes no
    # transform, so each runs to exit 0 without a warning
    tree, direction, expected = _FLOAT_EDGES[case]
    tree = dict(tree, geometry="ppp", direction=direction, gamma_grid_db=[0.0, 1000.0])
    code, out = _run(tmp_path, tree)
    assert code == 0
    lines = (out / f"ppp-coverage-{direction}.csv").read_text(encoding="utf-8").splitlines()
    value = np.array([float(row.split(",")[1]) for row in lines[1:]])
    if expected is None:
        mc = mc_coverage_ppp(config_from_dict(tree).scenario(), direction, [0.0], 2000, 1)
        assert abs(value[0] - mc.value[0]) <= mc.ci_halfwidth[0] and value[1] == 0.0
    else:
        np.testing.assert_allclose(value, expected, rtol=1e-12)


def _underflowing_slope_coverage():
    """Downlink coverage with every cell in uplink and no noise at
    gamma = 1e100, where the map is its leading mobile term
    P*/P a1 x^{2b}, a1 = 6 eta R^{2bk} beta_0."""
    net, prop = MacroNetwork(), PropagationParams(p_noise_dbm=-math.inf)
    a1 = 6.0 * net.load_eta * net.cell_radius ** (prop.two_b * prop.k) * beta_h(0, prop.b, prop.k, net.x_edge)
    return (1e-100 / (prop.p_star_over_p * a1)) ** (2.0 / prop.two_b) / net.x_edge**2


# macro configs at the edges of the float range: id -> (tree, coverage,
# or None where the run is refused with exit 3)
_MACRO_FLOAT_EDGES = {
    # the map's slope underflows to 0 and the Newton solve bisects
    "underflowing-slope": ({"mix": {"alpha_d": 0.0}, "propagation": {"p_noise_dbm": -math.inf},
                            "gamma_grid_db": [1000.0]}, _underflowing_slope_coverage()),
    # P*/P of 2,560 dB scales the mobile Taylor table past the double range
    "taylor-table-overflow": ({"mix": {"alpha_d": 0.5}, "propagation": {"p_star_dbm": 2560}, "gamma_grid_db": [0.0],
                               "mode": "both", "n_draws": 2000, "macro": {"rings": 2}}, None),
}


@pytest.mark.parametrize("case", list(_MACRO_FLOAT_EDGES))
def test_cli_runs_or_refuses_macro_coverage_at_the_edges_of_the_float_range(tmp_path, capsys, case):
    tree, expected = _MACRO_FLOAT_EDGES[case]
    code, out = _run(tmp_path, tree)
    if expected is None:
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical error:") and "Traceback" not in err
    else:
        assert code == 0
        lines = (out / "macro-coverage-dl.csv").read_text(encoding="utf-8").splitlines()
        np.testing.assert_allclose(float(lines[1].split(",")[1]), expected, rtol=1e-12)


@pytest.mark.parametrize("direction", ["dl", "ul"])
def test_cli_refuses_an_ase_over_a_serving_power_near_the_smallest_normal_double(tmp_path, capsys, direction):
    # at a_db 2999 the serving power is about 1e-298 mW and the noise
    # 5e-10 mW: the ASE is about 1e-163 bit/s/Hz, nearly all of it from
    # serving distances near 1e-82 km, beyond every node of the graded
    # Rayleigh rule, so the serving rule reads 1.1e-278 (downlink) with a
    # |K - G| as large, and the refusal is right
    tree = {"geometry": "ppp", "experiment": "ase", "direction": direction, "propagation": {"a_db": 2999},
            "lambda_grid": [10.0], "quadrature": FAST_QUAD}
    code, _ = _run(tmp_path, tree)
    assert code == 3
    assert capsys.readouterr().err.startswith("numerical error: spectral-efficiency integral not converged")


@pytest.mark.parametrize("two_b", [2.0001, 2.01, 2.02])
@pytest.mark.parametrize("experiment, direction", [("coverage", "dl"), ("coverage", "ul"), ("ase", "dl"),
                                                   ("ase", "ul")])
def test_cli_refuses_a_path_loss_exponent_just_above_2_with_exit_3(tmp_path, capsys, two_b, experiment, direction):
    # the kernel maps the tail beyond each turnover by s = (e/y)^{2b-2},
    # whose nodes, weights or powers pass the double range as 2b nears 2:
    # such a rule or table is NaN, which refine never accepts
    tree = {"geometry": "ppp", "experiment": experiment, "direction": direction, "propagation": {"two_b": two_b},
            "gamma_grid_db": [0.0], "lambda_grid": [10.0]}
    code, _ = _run(tmp_path, tree)
    assert code == 3
    assert capsys.readouterr().err.startswith("numerical error: Laplace transform not converged")


_DIGITS_400 = 10**400


@pytest.mark.parametrize("tree, message", [
    ({"propagation": {"two_b": math.inf}}, "propagation: two_b must lie in (2, inf), got inf"),
    ({"propagation": {"a_db": math.inf}}, "propagation: a_db must lie in (-inf, inf), got inf"),
    ({"propagation": {"a_db": -math.inf}}, "propagation: a_db must lie in (-inf, inf), got -inf"),
    ({"propagation": {"p_dl_dbm": math.inf}}, "propagation: p_dl_dbm must lie in [-inf, inf), got inf"),
    ({"propagation": {"p_noise_dbm": math.inf}}, "propagation: p_noise_dbm must lie in [-inf, inf), got inf"),
    ({"propagation": {"p_star_dbm": 4000}}, "propagation: p_star_dbm - a_db is 3870 dB: its linear value overflows"),
    ({"propagation": {"two_b": _DIGITS_400}}, "propagation: two_b must be a real number, got 1000"),
    ({"gamma_grid_db": [0.0, _DIGITS_400]}, "gamma_grid_db: entries must be numbers"),
    ({"gamma_grid_db": {"start": 0.0, "stop": _DIGITS_400, "step": 1.0}},
     "gamma_grid_db: range needs numeric start, stop, step"),
    ({"experiment": "isr", "propagation": {"p_dl_dbm": -math.inf}},
     "propagation: p_dl_dbm is -inf dBm: the serving link is silent"),
    ({"experiment": "isr", "propagation": {"p_star_dbm": -math.inf}},
     "propagation: p_star_dbm is -inf dBm: the serving link is silent"),
    ({"propagation": {"p_star_dbm": -3000, "p_dl_dbm": 300}, "direction": "ul"},
     "propagation: p_star_dbm - a_db is -3130 dB: its linear value underflows"),
    ({"propagation": {"p_star_dbm": -3000, "p_dl_dbm": 300}, "experiment": "isr"},
     "propagation: p_star_dbm - a_db is -3130 dB: its linear value underflows"),
    ({"geometry": "ppp", "ppp": {"p_small_dbm": -3000}}, "ppp: p_small_dbm - a_db is -3130 dB: its linear value underflows"),
], ids=["two_b-inf", "a_db-inf", "a_db-minus-inf", "p_dl_dbm-inf", "p_noise_dbm-inf", "p_star_dbm-4000",
        "two_b-400-digits", "grid-entry-400-digits", "range-key-400-digits", "isr-silent-downlink",
        "isr-silent-uplink", "p_star_dbm-minus-3000-ul", "p_star_dbm-minus-3000-isr", "p_small_dbm-minus-3000"])
def test_cli_refuses_an_argument_outside_its_domain_with_exit_2(tmp_path, capsys, tree, message):
    code, out = _run(tmp_path, tree)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: invalid config:\n  {message}") and "Traceback" not in err
    assert not out.exists()
