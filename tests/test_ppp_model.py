"""Tests for the small-cell Poisson model: the Monte Carlo sampler, the
interference Laplace transform against an independent quadrature oracle,
coverage, and spectral efficiency."""

import math

import numpy as np
import pytest
import scipy.integrate

from tddgeom import (
    IntegrationError,
    PropagationParams,
    QuadratureControl,
    SmallCellScenario,
    TddMix,
    ase,
    coverage_ppp_dl,
    coverage_ppp_ul,
    laplace_dl,
    laplace_ul,
    mc_coverage_ppp,
    mc_laplace_ppp,
    mc_sinr_ppp,
    ppp_interference_draws,
)
from tddgeom import ppp_model
from tddgeom.config import FAST_QUAD


def _oracle_laplace(v, r, scenario, sign):
    """Independent evaluation of the interference Laplace transform.

    Gauss-Laguerre in the Rayleigh offset (after u = lam pi rho^2),
    trapezoid in the angle, adaptive quadrature in the cell distance
    with an algebraic closure beyond the finite upper limit.  sign picks
    the orientation of the offset in the composite distance; the two
    orientations are distributionally identical.
    """
    prop = scenario.prop
    two_b = prop.two_b
    bk = prop.b * prop.k
    p_dl = scenario.p_small_mw
    p_ul = scenario.p_small_star_mw
    a_d = scenario.mix.alpha_d
    a_u = scenario.mix.alpha_u
    lam_pi = scenario.lam * math.pi
    u_nodes, u_weights = np.polynomial.laguerre.laggauss(64)
    rho = np.sqrt(u_nodes / lam_pi)
    theta = (np.arange(256) + 0.5) * (2.0 * math.pi / 256)
    ct = np.cos(theta)

    def one_minus_kernel(x):
        d2 = x * x + rho[:, None] ** 2 + sign * 2.0 * x * rho[:, None] * ct[None, :]
        term = 1.0 / (1.0 + v * p_ul * rho[:, None] ** (2.0 * bk) * d2 ** (-prop.b))
        e_ul = float(u_weights @ term.mean(axis=1))
        t_dl = 1.0 / (1.0 + v * p_dl * x ** (-two_b))
        return 1.0 - a_d * t_dl - a_u * e_ul

    x_max = r + 80.0 * scenario.rho_scale
    integral, _ = scipy.integrate.quad(
        lambda x: one_minus_kernel(x) * x, r, x_max, limit=400, epsabs=1e-13, epsrel=1e-11
    )
    e_pc = float(u_weights @ rho ** (2.0 * bk))
    c = v * (a_d * p_dl + a_u * p_ul * e_pc)
    tail = c * x_max ** (2.0 - two_b) / (two_b - 2.0)
    tail -= c * c * x_max ** (2.0 - 2.0 * two_b) / (2.0 * two_b - 2.0)
    return math.exp(-2.0 * lam_pi * (integral + tail))


def test_scenario_defaults_and_units():
    sc = SmallCellScenario(lam=10.0)
    assert sc.window_radius == pytest.approx(5.0 / math.sqrt(10.0), rel=1e-14)
    assert sc.rho_scale == pytest.approx(1.0 / math.sqrt(10.0 * math.pi), rel=1e-14)
    # environment offset folds into the transmit powers
    assert sc.p_small_mw == pytest.approx(10.0 ** ((26.0 - 130.0) / 10.0), rel=1e-14)
    assert sc.p_small_star_mw == pytest.approx(10.0 ** ((20.0 - 130.0) / 10.0), rel=1e-14)
    with pytest.raises(ValueError):
        SmallCellScenario(lam=0.0)
    with pytest.raises(ValueError):
        SmallCellScenario(lam=1.0, window_radius=-2.0)


def test_quadrature_control_validation():
    with pytest.raises(ValueError):
        QuadratureControl(inner_abs_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureControl(n_theta=1)
    with pytest.raises(ValueError):
        QuadratureControl(max_refinements=-1)


def test_interference_draws_decomposition_and_pure_mixes():
    sc = SmallCellScenario(lam=10.0, mix=TddMix(alpha_d=0.5))
    draws = ppp_interference_draws(sc, "dl", 100, seed=4)
    np.testing.assert_array_equal(
        draws["i_total"], draws["from_dl_pairs"] + draws["from_ul_pairs"]
    )
    assert np.all(draws["serving_distance"] > 0.0)
    dl_only = ppp_interference_draws(SmallCellScenario(lam=10.0, mix=TddMix(alpha_d=1.0)), "dl", 50, seed=4)
    assert np.all(dl_only["from_ul_pairs"] == 0.0)
    ul_only = ppp_interference_draws(SmallCellScenario(lam=10.0, mix=TddMix(alpha_d=0.0)), "ul", 50, seed=4)
    assert np.all(ul_only["from_dl_pairs"] == 0.0)


def test_interference_draws_chunk_invariance():
    sc = SmallCellScenario(lam=10.0, mix=TddMix(alpha_d=0.5))
    short = ppp_interference_draws(sc, "ul", 5, seed=7)
    long = ppp_interference_draws(sc, "ul", 12, seed=7)
    for key in short:
        np.testing.assert_array_equal(short[key], long[key][:5])


def test_mc_sinr_matches_draw_decomposition():
    sc = SmallCellScenario(lam=10.0, mix=TddMix(alpha_d=0.5))
    for direction in ("dl", "ul"):
        draws = ppp_interference_draws(sc, direction, 200, seed=6)
        np.testing.assert_array_equal(
            mc_sinr_ppp(sc, direction, 200, seed=6),
            draws["useful"] / (draws["i_total"] + sc.p_noise_mw),
        )


def test_laplace_against_independent_oracle():
    sc = SmallCellScenario(lam=10.0, mix=TddMix(alpha_d=0.5))
    for v, r in ((5e8, 0.1), (5e9, 0.2)):
        ours = laplace_dl(v, r, sc)
        ref = _oracle_laplace(v, r, sc, sign=+1)
        assert abs(ours - ref) < 2e-5, (v, r, ours, ref)
    v, r = 5e8, 0.15
    ours = laplace_ul(v, r, sc)
    ref = _oracle_laplace(v, r, sc, sign=-1)
    assert abs(ours - ref) < 2e-5, (ours, ref)


def _broadcast_kernel(x, v, scenario, n_theta, n_rho):
    """The interfered fraction a / (1 + a), a = v P d^{-2b}, as one
    broadcast over (x, rho, theta) on the full midpoint angle grid, with
    d2 ** (-b): the reference for the folded, chunked kernel.  v holds
    one transform variable per x."""
    prop = scenario.prop
    b = prop.b
    u, w = ppp_model._gl_unit(n_rho)
    rho = np.sqrt(-np.log1p(-u) / (scenario.lam * math.pi))
    theta = (np.arange(n_theta) + 0.5) * (2.0 * math.pi / n_theta)
    xc = x[:, None, None]
    rc = rho[None, :, None]
    d2 = xc * xc + rc * rc - 2.0 * xc * rc * np.cos(theta)[None, None, :]
    a_ul = v[:, None, None] * scenario.p_small_star_mw * rc ** (2.0 * b * prop.k) * d2 ** (-b)
    f_ul = (a_ul / (1.0 + a_ul)).mean(axis=2) @ w
    a_dl = v * scenario.p_small_mw * x ** (-2.0 * b)
    return scenario.mix.alpha_d * a_dl / (1.0 + a_dl) + scenario.mix.alpha_u * f_ul


@pytest.mark.parametrize("n_theta", [16, 15])
@pytest.mark.parametrize("k", [0.0, 0.4])
@pytest.mark.parametrize("alpha_d", [0.0, 0.5, 1.0])
def test_kernel_matches_the_broadcast_reference(n_theta, k, alpha_d):
    sc = SmallCellScenario(lam=10.0, prop=PropagationParams(k=k), mix=TddMix(alpha_d=alpha_d))
    # 1200 positions span several chunks of the kernel's buffer
    x = np.geomspace(0.005, 40.0, 1200)
    v = 10.0 ** np.random.default_rng(3).uniform(7.0, 11.0, x.size)
    ref = _broadcast_kernel(x, v, sc, n_theta, 32)
    ours = ppp_model._mean_kernel(x, v, sc, n_theta, 32)
    assert np.max(np.abs(ours - ref) / ref) <= 1e-13


@pytest.mark.parametrize("alpha_d", [0.0, 0.5])
def test_kernel_keeps_its_relative_accuracy_in_the_far_tail(alpha_d):
    # the tail nodes of the PGFL at (v, r) = (1e10, 0.2) and n_x = 96,
    # where the interfered fraction falls to about 1e-10: one minus the
    # retention would keep only its leading six digits there
    sc = SmallCellScenario(lam=10.0, prop=PropagationParams(k=0.4), mix=TddMix(alpha_d=alpha_d))
    two_b = sc.prop.two_b
    x_break = (1e10 * sc.p_small_mw) ** (1.0 / two_b)  # the turnover scale, beyond r
    s, _ = ppp_model._gl_unit(96)
    x = x_break * s ** (-1.0 / (two_b - 2.0))
    v = np.full(x.size, 1e10)
    ref = _broadcast_kernel(x, v, sc, 16, 32)
    assert ref.min() < 1e-9
    ours = ppp_model._mean_kernel(x, v, sc, 16, 32)
    assert np.max(np.abs(ours - ref) / ref) <= 1e-13


def test_silent_uplink_pairs_retain_exactly():
    x = np.geomspace(0.01, 10.0, 50)
    v = np.full(x.size, 1e9)
    with np.errstate(all="raise"):
        for alpha_d in (0.5, 0.0):
            sc = SmallCellScenario(lam=10.0, p_small_star_dbm=-math.inf, mix=TddMix(alpha_d=alpha_d))
            a_dl = v * sc.p_small_mw * x ** (-sc.prop.two_b)
            np.testing.assert_array_equal(
                ppp_model._mean_kernel(x, v, sc, 16, 32), alpha_d * (a_dl / (1.0 + a_dl))
            )
        # at alpha_d = 0 nothing transmits: the interference is exactly zero
        assert laplace_dl(1e9, 0.1, sc) == 1.0
        assert laplace_ul(1e9, 0.1, sc) == 1.0


def test_batched_laplace_refines_each_pair_on_its_own(monkeypatch):
    # record, per transform variable, the x orders it is evaluated at
    orders = {}
    real = ppp_model._pgfl_radial

    def spy(v, r, scenario, n_x, n_theta, n_rho):
        for vi in v:
            orders.setdefault(float(vi), []).append(n_x)
        return real(v, r, scenario, n_x, n_theta, n_rho)

    monkeypatch.setattr(ppp_model, "_pgfl_radial", spy)
    sc = SmallCellScenario(lam=10.0, mix=TddMix(alpha_d=0.5))
    # at this tolerance (1e8, 0.3) needs one more doubling, the others none
    quad = QuadratureControl(**{**FAST_QUAD, "inner_abs_tol": 1e-6})
    v = np.array([1e9, 1e8, 0.0, 1e10])
    r = np.array([0.02, 0.3, 0.1, 0.1])
    batch = ppp_model._laplace(v, r, sc, quad)
    batch_orders = dict(orders)
    assert batch_orders[1e8] == [24, 48, 96]
    assert batch_orders[1e9] == batch_orders[1e10] == [24, 48]
    assert 0.0 not in batch_orders and batch[2] == 1.0
    for vi, ri, bi in zip(v, r, batch):
        orders.clear()
        one = laplace_dl(vi, ri, sc, quad)
        assert abs(bi - one) <= 1e-15 * one
        assert orders.get(float(vi), []) == batch_orders.get(float(vi), [])
    # no refinement allowed: the error names the failing pair
    strict = QuadratureControl(**{**FAST_QUAD, "inner_abs_tol": 1e-6, "max_refinements": 0})
    with pytest.raises(IntegrationError) as scalar:
        laplace_dl(1e8, 0.3, sc, strict)
    with pytest.raises(IntegrationError, match="v=100000000.0, r=0.3") as batched:
        ppp_model._laplace(v, r, sc, strict)
    assert batched.value.achieved == scalar.value.achieved
    assert batched.value.discrepancy == scalar.value.discrepancy > 1e-6


def test_laplace_basic_properties():
    sc = SmallCellScenario(lam=10.0, mix=TddMix(alpha_d=0.5))
    assert laplace_dl(0.0, 0.1, sc) == 1.0
    assert laplace_ul(0.0, 0.1, sc) == 1.0
    vals = [laplace_dl(v, 0.1, sc) for v in (1e7, 1e8, 1e9)]
    assert all(1.0 > a > b > 0.0 for a, b in zip(vals, vals[1:]))
    sparse = SmallCellScenario(lam=1e-6, window_radius=5.0, mix=TddMix(alpha_d=0.5))
    assert laplace_dl(1e8, 0.1, sparse) > 0.9999
    with pytest.raises(ValueError):
        laplace_dl(-1.0, 0.1, sc)


def test_laplace_directions_agree():
    # the two reception kernels average the same composite distance over
    # a symmetric angle grid, so their transforms coincide
    sc = SmallCellScenario(lam=10.0, mix=TddMix(alpha_d=0.3))
    for v, r in ((1e8, 0.05), (5e9, 0.2)):
        assert abs(laplace_dl(v, r, sc) - laplace_ul(v, r, sc)) < 1e-10


def test_laplace_against_monte_carlo():
    # wide window so the finite-window truncation sits below the
    # sampling error
    sc = SmallCellScenario(lam=10.0, window_radius=8.0, mix=TddMix(alpha_d=0.5))
    for direction, fn, v, r in (("dl", laplace_dl, 1e8, 0.15), ("ul", laplace_ul, 5e8, 0.1)):
        est, se = mc_laplace_ppp(v, r, sc, direction, 4000, seed=15)
        ana = fn(v, r, sc)
        assert abs(est - ana) < 3.5 * se + 1e-4, (direction, est, ana, se)


def test_mc_sinr_validation_and_determinism():
    sc = SmallCellScenario(lam=10.0, mix=TddMix(alpha_d=0.5))
    with pytest.raises(ValueError):
        mc_sinr_ppp(sc, "sideways", 10, seed=0)
    with pytest.raises(ValueError):
        mc_sinr_ppp(sc, "dl", 0, seed=0)
    with pytest.raises(ValueError):
        mc_sinr_ppp(sc, "dl", 10, seed=0, association="voronoi")
    a = mc_sinr_ppp(sc, "dl", 64, seed=9)
    b = mc_sinr_ppp(sc, "dl", 64, seed=9)
    np.testing.assert_array_equal(a, b)
    assert np.all(a > 0.0)
    c = mc_sinr_ppp(sc, "ul", 64, seed=9, association="nearest")
    np.testing.assert_array_equal(c, mc_sinr_ppp(sc, "ul", 64, seed=9, association="nearest"))


def test_mc_coverage_ppp_shape():
    sc = SmallCellScenario(lam=10.0, mix=TddMix(alpha_d=0.5))
    grid = np.arange(-20.0, 21.0, 10.0)
    curve = mc_coverage_ppp(sc, "dl", grid, 400, seed=12)
    assert np.all((curve.value >= 0.0) & (curve.value <= 1.0))
    assert np.all(np.diff(curve.value) <= 0.0)
    again = mc_coverage_ppp(sc, "dl", grid, 400, seed=12)
    np.testing.assert_array_equal(curve.value, again.value)


def test_nearest_association_matches_closed_form():
    # all-downlink, negligible noise, two_b = 4: coverage at threshold g
    # is 1 / (1 + sqrt(g) (pi/2 - atan(1/sqrt(g))))
    sc = SmallCellScenario(
        lam=10.0,
        prop=PropagationParams(two_b=4.0, p_noise_dbm=-400.0),
        mix=TddMix(alpha_d=1.0),
    )
    g = 1.0
    closed = 1.0 / (1.0 + math.sqrt(g) * (math.pi / 2.0 - math.atan(1.0 / math.sqrt(g))))
    sinr = mc_sinr_ppp(sc, "dl", 3000, seed=31, association="nearest")
    est = float(np.mean(sinr > g))
    se = math.sqrt(est * (1.0 - est) / sinr.size)
    assert abs(est - closed) < 3.5 * se + 0.005


def test_coverage_anchor_closed_form():
    # the quadrature must reproduce the same classic value
    sc = SmallCellScenario(
        lam=10.0,
        prop=PropagationParams(two_b=4.0, p_noise_dbm=-400.0),
        mix=TddMix(alpha_d=1.0),
    )
    for gamma_db in (0.0, 5.0):
        g = 10.0 ** (gamma_db / 10.0)
        closed = 1.0 / (1.0 + math.sqrt(g) * (math.pi / 2.0 - math.atan(1.0 / math.sqrt(g))))
        assert coverage_ppp_dl(gamma_db, sc) == pytest.approx(closed, abs=1e-5)


@pytest.mark.parametrize("alpha_d", [1.0, 0.5])
def test_coverage_without_noise_or_power_control_ignores_density(alpha_d):
    # with noise off and k = 0 every distance scales with 1/sqrt(lam)
    prop = PropagationParams(k=0.0, p_noise_dbm=-math.inf)
    quad = QuadratureControl(**FAST_QUAD)
    sparse, dense = (SmallCellScenario(lam=lam, prop=prop, mix=TddMix(alpha_d=alpha_d))
                     for lam in (5.0, 20.0))
    for fn in (coverage_ppp_dl, coverage_ppp_ul):
        assert fn(0.0, dense, quad) == pytest.approx(fn(0.0, sparse, quad), abs=1e-15)


def test_coverage_ppp_monotone_and_bounded():
    sc = SmallCellScenario(lam=10.0, mix=TddMix(alpha_d=0.5))
    vals = [coverage_ppp_dl(g, sc) for g in (-15.0, -5.0, 5.0, 15.0)]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    assert coverage_ppp_dl(-60.0, sc) > 0.999
    ul_vals = [coverage_ppp_ul(g, sc) for g in (-10.0, 0.0)]
    assert ul_vals[0] > ul_vals[1]


def test_laplace_nonconvergence_is_loud():
    sc = SmallCellScenario(lam=10.0, mix=TddMix(alpha_d=0.5))
    strict = QuadratureControl(inner_abs_tol=1e-300, max_refinements=0)
    with pytest.raises(IntegrationError) as excinfo:
        laplace_dl(1e9, 0.1, sc, quad=strict)
    err = excinfo.value
    assert err.achieved is not None and 0.0 < err.achieved < 1.0
    assert err.discrepancy is not None and err.discrepancy > 0.0


@pytest.mark.parametrize("direction, silent", [("dl", "p_small_dbm"), ("ul", "p_small_star_dbm")])
def test_silent_serving_link_has_zero_coverage(direction, silent):
    # zero serving power: the SINR is 0 on every route
    sc = SmallCellScenario(lam=10.0, mix=TddMix(alpha_d=0.5), **{silent: -math.inf})
    analytic = {"dl": coverage_ppp_dl, "ul": coverage_ppp_ul}[direction]
    assert analytic(0.0, sc) == 0.0
    assert analytic(-30.0, sc, QuadratureControl(**FAST_QUAD)) == 0.0
    curve = mc_coverage_ppp(sc, direction, [-30.0, 0.0], 200, seed=5)
    np.testing.assert_array_equal(curve.value, 0.0)
    assert ase(sc, direction, QuadratureControl(**FAST_QUAD)) == 0.0


def test_ase_synthetic_profiles():
    sc = SmallCellScenario(lam=10.0, mix=TddMix(alpha_d=0.5))
    # coverage 1/(1+gamma) integrates to exactly 1 nat
    val = ase(sc, "dl", coverage_fn=lambda db: 1.0 / (1.0 + 10.0 ** (db / 10.0)))
    assert abs(val - 1.0 / math.log(2.0)) < 5e-5
    # a sharp cutoff at gamma = e^2 - 1 lands on a panel boundary and
    # integrates exactly to 2 nats
    cut = math.expm1(2.0)
    step = ase(sc, "dl", coverage_fn=lambda db: 1.0 if 10.0 ** (db / 10.0) < cut else 0.0)
    assert step == pytest.approx(2.0 / math.log(2.0), rel=1e-12)
    with pytest.raises(ValueError):
        ase(sc, "sideways")


def test_ase_flags_nondecaying_profile():
    sc = SmallCellScenario(lam=10.0, mix=TddMix(alpha_d=0.5))
    with pytest.raises(IntegrationError) as excinfo:
        ase(sc, "dl", coverage_fn=lambda db: 1.0)
    assert excinfo.value.achieved is not None and excinfo.value.achieved > 0.0
