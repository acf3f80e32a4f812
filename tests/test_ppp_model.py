"""Tests for the small-cell Poisson model: the Monte Carlo sampler, the
interference Laplace transform against an independent quadrature oracle,
coverage, and spectral efficiency."""

import dataclasses
import math
import tracemalloc

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
from tddgeom import ppp_ase, ppp_model
from tddgeom.quadrules import gauss_kronrod_unit
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
    # a density whose distance scale underflows at the path-loss power
    # is rejected; one just inside the range keeps the dense-limit value
    with pytest.raises(ValueError, match="too large"):
        SmallCellScenario(lam=1e200)
    quad = QuadratureControl(**FAST_QUAD)
    dense = SmallCellScenario(lam=1e150, mix=TddMix(alpha_d=1.0))
    assert coverage_ppp_dl(0.0, dense, quad) == pytest.approx(0.482255, abs=5e-7)


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


def _broadcast_kernel(v, r, scenario, n, n_rho):
    """The piece rule of the module notes as one broadcast over (pair,
    offset, node) in kilometres, with g = c / (c + y^{2b}) and
    W = 1 - arccos(q) / pi written out, and nodes at y = 0 where a piece
    is empty: the reference for the kernel, which works in chunks on
    tables of nodes in kilometres, built once per serving distance, and
    in units of the turnover only for the rows beyond it.  Returns the
    Kronrod and the Gauss estimates, shape (2, v.size)."""
    prop, mix = scenario.prop, scenario.mix
    two_b, z = prop.two_b, prop.two_b - 2.0
    t, w = gauss_kronrod_unit(n)

    def panel(c, lo, hi, weight=1.0):
        """int_lo^hi y g(y) W(y) dy on the graded map, shape (..., 2)."""
        y = lo[..., None] + (hi - lo)[..., None] * (t * t * (3.0 - 2.0 * t))
        f = y * c[..., None] / (c[..., None] + y**two_b) * weight
        return (f * (hi - lo)[..., None] * (6.0 * t * (1.0 - t))) @ w.T

    def tail(c, e):
        """int_e^inf y g(y) dy on the map s = (e / y)^{2b - 2}."""
        y = e[..., None] * t ** (-1.0 / z)
        f = y * c[..., None] / (c[..., None] + y**two_b)
        return (f * e[..., None] * t ** (-1.0 / z - 1.0) / z) @ w.T

    c_dl = v * scenario.p_small_mw
    edge = np.maximum(r, c_dl ** (1.0 / two_b))
    down = panel(c_dl, r, edge) + tail(c_dl, edge)
    rho, w_rho = ppp_model._rayleigh_rule(n_rho, scenario.lam)
    rr = r[:, None]
    c_ul = v[:, None] * scenario.p_small_star_mw * rho ** (two_b * prop.k)
    near, far = np.abs(rho - rr), rho + rr
    edge = np.maximum(far, c_ul ** (1.0 / two_b))
    y = near[..., None] + (far - near)[..., None] * (t * t * (3.0 - 2.0 * t))
    q = (y * y + (rho * rho - rr * rr)[..., None]) / (2.0 * y * rho[:, None])
    angle = 1.0 - np.arccos(np.clip(q, -1.0, 1.0)) / math.pi
    up = (panel(c_ul, np.zeros_like(near), np.maximum(rho - rr, 0.0)) + panel(c_ul, near, far, angle)
          + panel(c_ul, far, edge) + tail(c_ul, edge))
    return mix.alpha_d * down.T + mix.alpha_u * np.einsum("mjk,kj->km", up, w_rho)


def test_offset_rule_is_a_graded_rayleigh_rule():
    # E[rho^{2bk}] = Gamma(1 + bk) / (lam pi)^{bk} for a Rayleigh offset:
    # the power-control moment the kernel integrates far out (bk = 0.7 at
    # the default 2b = 3.5, k = 0.4)
    lam, bk = 10.0, 0.7
    rho, weights = ppp_model._rayleigh_rule(32, lam)
    assert rho.shape == (65,) and weights.shape == (2, 65)
    assert np.all(rho > 0) and np.all(np.diff(rho) > 0)
    np.testing.assert_allclose(weights.sum(axis=1), 1.0, rtol=0, atol=1e-14)
    exact = math.gamma(1.0 + bk) / (lam * math.pi) ** bk
    kronrod, gauss = weights @ rho ** (2.0 * bk) / exact - 1.0
    assert abs(kronrod) < 1e-7 and abs(gauss) < 1e-5
    # the accepted discrepancy |K - G| bounds the error of the value returned
    assert abs(kronrod) < abs(kronrod - gauss)


@pytest.mark.parametrize("n", [16, 15])
@pytest.mark.parametrize("k", [0.0, 0.4])
@pytest.mark.parametrize("alpha_d", [0.0, 0.5, 1.0])
def test_kernel_matches_the_broadcast_reference(n, k, alpha_d):
    # n is the distance order: at odd n the centre t = 1/2 of the unit
    # rule is a Gauss node as well as a Kronrod one
    sc = SmallCellScenario(lam=10.0, prop=PropagationParams(k=k), mix=TddMix(alpha_d=alpha_d))
    rho, _ = ppp_model._rayleigh_rule(16, sc.lam)
    # 120 pairs span several chunks of the kernel's buffers; some serving
    # distances are offset nodes, where a piece is empty, and one is 0
    gen = np.random.default_rng(3)
    r = np.concatenate((rho[::3], [0.0], gen.uniform(0.005, 0.6, 108)))
    v = 10.0 ** gen.uniform(6.0, 11.0, r.size)
    ours = ppp_model._pgfl_radial(v, r, sc, n, 16)
    ref = _broadcast_kernel(v, r, sc, n, 16)
    assert ours.shape == ref.shape == (2, r.size)
    assert np.max(np.abs(ours - ref) / ref) <= 1e-13


@pytest.mark.parametrize("n_x, n_rho", [(12, 16), (24, 32), (48, 64)])
def test_kernel_gives_a_pair_the_same_bits_in_any_batch(n_x, n_rho):
    # the orders build the tables of several serving distances at once
    # (12, 16), of one (24, 32), and in three blocks of offsets (48, 64)
    sc = SmallCellScenario(lam=10.0, prop=PropagationParams(k=0.4), mix=TddMix(alpha_d=0.5))
    rho, _ = ppp_model._rayleigh_rule(n_rho, sc.lam)
    gen = np.random.default_rng(5)
    # r = 0, r on an offset node and an r between them; at v = 1e11 the
    # downlink turnover passes r, and the uplink one r + rho at the small
    # offsets, so those rows integrate beyond their turnover
    for v, r in ((1e11, 0.0), (1e11, rho[n_rho]), (1e11, 0.13), (1e8, 0.13)):
        if v == 1e11:
            assert (v * sc.p_small_mw) ** (1.0 / sc.prop.two_b) > r
            assert np.any((v * sc.p_small_star_mw) ** (1.0 / sc.prop.two_b) * rho**0.4 > r + rho)
        alone = ppp_model._pgfl_radial(np.array([v]), np.array([r]), sc, n_x, n_rho)[:, 0]
        beside = ppp_model._pgfl_radial(np.insert(10.0 ** gen.uniform(6.0, 11.0, 20), 7, v), np.full(21, r),
                                        sc, n_x, n_rho)[:, 7]
        among = ppp_model._pgfl_radial(np.insert(10.0 ** gen.uniform(6.0, 11.0, 30), 11, v),
                                       np.insert(gen.uniform(0.0, 0.6, 30), 11, r), sc, n_x, n_rho)[:, 11]
        assert [x.hex() for x in alone] == [x.hex() for x in beside] == [x.hex() for x in among], (v, r)


def test_kernel_memory_does_not_grow_with_the_batch():
    # 2,000 pairs over the 49 serving distances of a coverage level run
    # through the same buffers and tables as 49 pairs do
    sc = SmallCellScenario(lam=10.0, prop=PropagationParams(k=0.4), mix=TddMix(alpha_d=0.5))
    r, _ = ppp_model._rayleigh_rule(24, sc.lam)
    gen = np.random.default_rng(8)
    ppp_model._pgfl_radial(np.array([1e9]), r[:1], sc, 24, 32)  # build the rules outside the trace

    def peak_mb(size):
        v, rs = 10.0 ** gen.uniform(6.0, 11.0, size), np.resize(r, size)
        tracemalloc.start()
        try:
            ppp_model._pgfl_radial(v, rs, sc, 24, 32)
            return tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()

    few, many = peak_mb(49), peak_mb(2000)
    assert many - few <= 0.5, (few, many)


def _uplink_by_cell_and_angle(v, r, rho, scenario):
    """The left side of the per-offset identity of the module notes:
    scipy's adaptive quadrature over the cell distance x beyond r of x
    times the angle average of the uplink fraction, itself adaptive in
    the angle, split where the integrand turns."""
    prop = scenario.prop
    c = v * scenario.p_small_star_mw * rho ** (prop.two_b * prop.k)

    def angle_mean(x):
        def g(theta):
            return c / (c + (x * x + rho * rho - 2.0 * x * rho * math.cos(theta)) ** prop.b)
        return scipy.integrate.quad(g, 0.0, math.pi, epsabs=0.0, epsrel=1e-13, limit=200)[0] / math.pi

    turn = c ** (1.0 / prop.two_b)
    cuts = sorted({r, max(r, rho), r + rho, max(r, rho + turn), 4.0 * (r + rho + turn), math.inf})
    return sum(scipy.integrate.quad(lambda x: x * angle_mean(x), lo, hi, epsabs=0.0, epsrel=1e-13,
                                    limit=200)[0] for lo, hi in zip(cuts, cuts[1:]))


def test_offset_integral_matches_the_cell_and_angle_integral():
    # the displacement identity, offset by offset: the four y pieces with
    # the closed-form angle weight against a nested quad over (x, theta)
    sc = SmallCellScenario(lam=10.0, prop=PropagationParams(k=0.4), mix=TddMix(alpha_d=0.5))
    v, r = 1e9, 0.1
    rho = np.array([0.5, 1.0, 2.0, 6.0]) * r
    two_b = sc.prop.two_b
    for offset in rho:
        # one offset of unit weight: its own Kronrod and Gauss estimates in y
        unit = sc.p_small_star_mw ** (1.0 / two_b) * offset**sc.prop.k
        kronrod, gauss = ppp_model._offset_sum(np.array([v]), np.array([r]), np.array([offset]),
                                               np.ones((2, 1)), np.array([unit]), two_b, 24)[:, 0]
        ref = _uplink_by_cell_and_angle(v, r, offset, sc)
        assert abs(kronrod / ref - 1.0) <= 1e-12, (offset, kronrod, ref)
        assert abs(kronrod - ref) <= abs(kronrod - gauss)


def _uplink_far_tail_at_two_b_4(v, r, rho, scenario):
    """int_r^inf x E_theta[g] dx for one offset at 2b = 4, where the
    angle average of g = c / (c + d^4) is closed: with A = x^2 + rho^2,
    w = ((x^2 - rho^2)^2 - c) - 2i sqrt(c) A and u = Re sqrt(w), it is
    c A / (u |w|).  The x integral is scipy's in u' = r^2 / x^2."""
    c = v * scenario.p_small_star_mw * rho ** (4.0 * scenario.prop.k)

    def angle_mean(x):
        big = x * x + rho * rho
        p = (x * x - rho * rho) ** 2 - c
        mod = math.hypot(p, 2.0 * math.sqrt(c) * big)
        return c * big / (math.sqrt(0.5 * (mod + p)) * mod)

    def integrand(s):
        # x dx = r^2 ds / (2 s^2)
        return angle_mean(r / math.sqrt(s)) * r * r / (2.0 * s * s)

    return scipy.integrate.quad(integrand, 0.0, 1.0, epsabs=0.0, epsrel=1e-13, limit=200)[0]


@pytest.mark.parametrize("alpha_d", [0.0, 0.5])
def test_kernel_keeps_its_relative_accuracy_in_the_far_tail(alpha_d):
    # at 2b = 4, r = 5 km and v = 1e4 the exponent is about 8e-9 and every
    # node lies far beyond the turnover: one minus the retention would
    # keep only its leading digits there.  The downlink term is
    # (sqrt(c) / 2) arctan(sqrt(c) / r^2) with c = v P.
    prop = PropagationParams(two_b=4.0, k=0.4)
    sc = SmallCellScenario(lam=10.0, prop=prop, mix=TddMix(alpha_d=alpha_d))
    v, r = 1e4, 5.0
    root = math.sqrt(v * sc.p_small_mw)
    down = 0.5 * root * math.atan(root / (r * r))
    rho, w_rho = ppp_model._rayleigh_rule(32, sc.lam)
    up = sum(wj * _uplink_far_tail_at_two_b_4(v, r, rj, sc) for rj, wj in zip(rho, w_rho[0]))
    exact = alpha_d * down + (1.0 - alpha_d) * up
    assert 1e-11 < exact < 1e-8
    ours = ppp_model._pgfl_radial(np.array([v]), np.array([r]), sc, 24, 32)[0, 0]
    assert abs(ours / exact - 1.0) <= 1e-13


def test_silent_uplink_pairs_retain_exactly():
    v = np.geomspace(1e6, 1e12, 50)
    r = np.geomspace(0.01, 1.0, 50)
    with np.errstate(all="raise"):
        downlink = ppp_model._pgfl_radial(v, r, SmallCellScenario(lam=10.0, mix=TddMix(alpha_d=1.0)), 24, 32)
        for alpha_d in (0.5, 0.0):
            sc = SmallCellScenario(lam=10.0, p_small_star_dbm=-math.inf, mix=TddMix(alpha_d=alpha_d))
            np.testing.assert_array_equal(ppp_model._pgfl_radial(v, r, sc, 24, 32), alpha_d * downlink)
        # at alpha_d = 0 nothing transmits: the interference is exactly zero
        assert laplace_dl(1e9, 0.1, sc) == 1.0
        assert laplace_ul(1e9, 0.1, sc) == 1.0


def test_batched_laplace_refines_each_pair_on_its_own(monkeypatch):
    # record, per transform variable, the x orders it is evaluated at
    orders = {}
    real = ppp_model._pgfl_radial

    def spy(v, r, scenario, n_x, n_rho):
        for vi in v:
            orders.setdefault(float(vi), []).append(n_x)
        return real(v, r, scenario, n_x, n_rho)

    monkeypatch.setattr(ppp_model, "_pgfl_radial", spy)
    sc = SmallCellScenario(lam=10.0, mix=TddMix(alpha_d=0.5))
    # at this tolerance (1e8, 0.02) needs one doubling (its Kronrod and
    # Gauss values differ by 8.1e-9 at n_x 24), the others none
    quad = QuadratureControl(**{**FAST_QUAD, "inner_abs_tol": 2e-9})
    v = np.array([1e9, 1e8, 0.0, 1e10])
    r = np.array([0.1, 0.02, 0.1, 0.1])
    batch = ppp_model._laplace(v, r, sc, quad)
    batch_orders = dict(orders)
    assert batch_orders[1e8] == [24, 48]
    assert batch_orders[1e9] == batch_orders[1e10] == [24]
    assert 0.0 not in batch_orders and batch[2] == 1.0
    for vi, ri, bi in zip(v, r, batch):
        orders.clear()
        one = laplace_dl(vi, ri, sc, quad)
        assert abs(bi - one) <= 1e-15 * one
        assert orders.get(float(vi), []) == batch_orders.get(float(vi), [])
    # no refinement allowed: the error names the failing pair
    strict = QuadratureControl(**{**FAST_QUAD, "inner_abs_tol": 2e-9, "max_refinements": 0})
    with pytest.raises(IntegrationError) as scalar:
        laplace_dl(1e8, 0.02, sc, strict)
    with pytest.raises(IntegrationError, match="v=100000000.0, r=0.02") as batched:
        ppp_model._laplace(v, r, sc, strict)
    assert batched.value.achieved == scalar.value.achieved
    assert batched.value.discrepancy == scalar.value.discrepancy > 2e-9


def test_laplace_meets_its_tolerance_against_a_fine_reference():
    # every pair in uplink with power control: the ungraded offset map
    # left a logarithmic singularity at rho -> infinity here, and the
    # default quadrature raised after two refinements
    sc = SmallCellScenario(lam=10.0, prop=PropagationParams(k=0.4), mix=TddMix(alpha_d=0.0))
    quad = QuadratureControl()
    v, r = 1.05e9, 0.52
    fine = ppp_model._pgfl_radial(np.array([v]), np.array([r]), sc, 192, 1024)
    ref = math.exp(-2.0 * math.pi * sc.lam * fine[0, 0])
    assert abs(laplace_dl(v, r, sc, quad) - ref) <= quad.inner_abs_tol


def test_default_quadrature_converges_when_every_pair_is_in_uplink():
    sc = SmallCellScenario(lam=10.0, prop=PropagationParams(k=0.4), mix=TddMix(alpha_d=0.0))
    dl = [coverage_ppp_dl(g, sc) for g in (-4.0, 0.0, 4.0)]
    ul = [coverage_ppp_ul(g, sc) for g in (-12.0, -8.0, -4.0)]
    for values in (dl, ul):
        assert all(1.0 > a > b > 0.0 for a, b in zip(values, values[1:]))


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


@pytest.mark.parametrize("v, r", [(math.nan, 0.1), (math.inf, 0.1), (1e9, math.nan), (1e9, math.inf)])
def test_laplace_rejects_a_non_finite_input(v, r):
    sc = SmallCellScenario(lam=10.0, mix=TddMix(alpha_d=0.5))
    for fn in (laplace_dl, laplace_ul):
        with pytest.raises(ValueError, match="finite"):
            fn(v, r, sc)


def test_laplace_directions_agree():
    # the typical user and the typical cell see the same field, so their
    # transforms coincide
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


@pytest.mark.parametrize("k", [0.0, 0.4])
@pytest.mark.parametrize("alpha_d", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("direction", ["dl", "ul"])
def test_a_coverage_grid_gives_each_threshold_its_one_threshold_value(direction, alpha_d, k):
    # the thresholds of a grid share the Laplace batch of each level, and
    # each is refined on its own: at this tolerance some refine and some
    # do not, and every value is the one-threshold call's in any order
    sc = SmallCellScenario(lam=10.0, prop=PropagationParams(k=k), mix=TddMix(alpha_d=alpha_d))
    quad = QuadratureControl(**{**FAST_QUAD, "outer_abs_tol": 1e-7})
    coverage = {"dl": coverage_ppp_dl, "ul": coverage_ppp_ul}[direction]
    grid = np.arange(-20.0, 20.1, 10.0)
    curve = coverage(grid, sc, quad)
    assert isinstance(curve, np.ndarray) and curve.shape == grid.shape
    single = [coverage(float(g), sc, quad) for g in grid]
    assert all(isinstance(value, float) for value in single)
    assert [value.hex() for value in curve.tolist()] == [value.hex() for value in single]
    backward = coverage(grid[::-1], sc, quad)[::-1]
    assert [value.hex() for value in backward.tolist()] == [value.hex() for value in single]
    assert coverage(np.array([]), sc, quad).shape == (0,)
    with pytest.raises(ValueError, match="1-D"):
        coverage(np.zeros((2, 2)), sc, quad)


def test_a_long_grid_whose_every_row_passes_its_turnover():
    # every pair in downlink and every threshold above 0 dB: each pair's
    # turnover passes r, so all its rows go beyond the turnover, and 1,500
    # thresholds put 1,500 such pairs at each serving distance
    sc = SmallCellScenario(lam=10.0, mix=TddMix(alpha_d=1.0))
    quad = QuadratureControl(**FAST_QUAD)
    grid = np.linspace(1.0, 30.0, 1500)
    curve = coverage_ppp_dl(grid, sc, quad)
    for g in (0, 777, 1499):
        assert curve[g].hex() == coverage_ppp_dl(float(grid[g]), sc, quad).hex()


def test_a_coverage_grid_raises_the_error_of_its_unconverged_threshold():
    # without refinement only -10 dB misses this tolerance (|K - G| is
    # 2.9e-7 there, 7.6e-8 at -20 dB and below 1e-9 elsewhere)
    sc = SmallCellScenario(lam=10.0, mix=TddMix(alpha_d=0.5))
    strict = QuadratureControl(**{**FAST_QUAD, "outer_abs_tol": 1e-7, "max_refinements": 0})
    with pytest.raises(IntegrationError) as scalar:
        coverage_ppp_dl(-10.0, sc, strict)
    assert scalar.value.discrepancy > 1e-7
    for grid in ([-20.0, -10.0, 0.0, 10.0, 20.0], [20.0, 10.0, 0.0, -10.0, -20.0]):
        with pytest.raises(IntegrationError) as batched:
            coverage_ppp_dl(np.array(grid), sc, strict)
        assert str(batched.value) == str(scalar.value)
        assert batched.value.achieved == scalar.value.achieved
        assert batched.value.discrepancy == scalar.value.discrepancy
    assert coverage_ppp_dl(np.array([-20.0, 0.0, 10.0, 20.0]), sc, strict).shape == (4,)


def _coverage_by_serving_quad(gamma_db, sc, direction, quad):
    """Coverage as scipy's adaptive quadrature over the Rayleigh serving
    distance, each point taking laplace_dl at the kernel orders of quad
    with inner_abs_tol 1e-8.  The serving density e^{-lam pi r^2} is
    below e^{-100} beyond 10 rho_scale, so the range stops there."""
    inner = dataclasses.replace(quad, inner_abs_tol=1e-8)
    p_serv, exp_serving = ppp_model._serving_link(sc, direction)
    gamma = 10.0 ** (gamma_db / 10.0)
    lam_pi = sc.lam * math.pi

    def integrand(r):
        v = gamma * r**exp_serving / p_serv
        return (2.0 * lam_pi * r * math.exp(-lam_pi * r * r - v * sc.p_noise_mw)
                * laplace_dl(v, r, sc, inner))

    s = sc.rho_scale
    return sum(scipy.integrate.quad(integrand, lo, hi, epsabs=1e-9, epsrel=1e-9, limit=200)[0]
               for lo, hi in ((0.0, s), (s, 10.0 * s)))


@pytest.mark.parametrize("lam, a_db, direction, gamma_db", [
    # a sparse, noise-limited downlink: the integrand is steep at r -> 0,
    # where the serving rule must place its nodes
    (1e-3, 160.0, "dl", -20.0),
    (10.0, 130.0, "dl", 0.0),
    (10.0, 130.0, "ul", 10.0),
], ids=["sparse-noise-limited", "dl-0db", "ul-10db"])
def test_coverage_meets_its_tolerance_against_the_serving_integral(lam, a_db, direction, gamma_db):
    sc = SmallCellScenario(lam=lam, prop=PropagationParams(a_db=a_db), mix=TddMix(alpha_d=0.5))
    quad = QuadratureControl(**FAST_QUAD)
    analytic = {"dl": coverage_ppp_dl, "ul": coverage_ppp_ul}[direction]
    reference = _coverage_by_serving_quad(gamma_db, sc, direction, quad)
    assert abs(analytic(gamma_db, sc, quad) - reference) <= quad.outer_abs_tol


def test_coverage_converges_at_a_low_threshold():
    # a noise-limited uplink at -46 dB, where the coverage is about 0.93:
    # the serving rule must meet a tight tolerance within its doublings
    sc = SmallCellScenario(lam=5.0, prop=PropagationParams(k=0.4, a_db=160.0), mix=TddMix(alpha_d=0.5))
    quad = QuadratureControl(**{**FAST_QUAD, "outer_abs_tol": 1e-7, "max_refinements": 4})
    assert 0.9 < coverage_ppp_ul(-46.0, sc, quad) < 1.0


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


def _abg_ase_bits():
    """Andrews, Baccelli and Ganti (IEEE Trans. Commun. 2011): without
    noise, at path-loss exponent 4, the nearest-cell downlink covers with
    probability 1 / (1 + sqrt(gamma) arctan(sqrt(gamma))), and the mean
    rate is its integral against d gamma / (1 + gamma)."""
    def integrand(gamma):
        root = math.sqrt(gamma)
        return 1.0 / ((1.0 + root * math.atan(root)) * (1.0 + gamma))

    nats = sum(scipy.integrate.quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-12, limit=200)[0]
               for lo, hi in ((0.0, 1.0), (1.0, math.inf)))
    return nats / math.log(2.0)


@pytest.mark.parametrize("quad", [QuadratureControl(**FAST_QUAD), QuadratureControl()],
                         ids=["fast", "default"])
def test_ase_meets_the_closed_form_without_noise(quad):
    # every pair in downlink and no noise: the Rayleigh-serving model
    # with its exclusion ball is the ABG model, whatever the density
    exact = _abg_ase_bits()
    assert exact == pytest.approx(2.148155, abs=5e-7)
    prop = PropagationParams(two_b=4.0, p_noise_dbm=-math.inf)
    sc = SmallCellScenario(lam=10.0, prop=prop, mix=TddMix(alpha_d=1.0))
    assert abs(ase(sc, "dl", quad) - exact) <= quad.ase_rel_tol * exact


def test_ase_nonconvergence_is_loud():
    sc = SmallCellScenario(lam=10.0, mix=TddMix(alpha_d=1.0))
    fast = QuadratureControl(**FAST_QUAD)
    # n_x 96 holds every Laplace value to inner_abs_tol without a
    # refinement, so the error comes from the ASE rules
    strict = QuadratureControl(**dict(FAST_QUAD, n_x=96, ase_rel_tol=1e-12, max_refinements=0))
    with pytest.raises(IntegrationError, match="spectral-efficiency") as excinfo:
        ase(sc, "dl", strict)
    err = excinfo.value
    # the achieved value is the ASE with the unconverged rows in it, and
    # the discrepancy is in bit/s/Hz, far above the 1e-12 asked for
    assert err.achieved == pytest.approx(ase(sc, "dl", fast), rel=fast.ase_rel_tol)
    assert err.discrepancy is not None and 1e-12 * err.achieved < err.discrepancy < 1e-3
    # at n_serving 2 without a refinement every row converges, and only
    # the serving rule misses its tolerance: its |K - G| bounds the error
    coarse = QuadratureControl(**dict(FAST_QUAD, n_serving=2, max_refinements=0))
    with pytest.raises(IntegrationError, match="spectral-efficiency integral") as excinfo:
        ase(sc, "dl", coarse)
    err = excinfo.value
    assert coarse.ase_rel_tol * err.achieved < err.discrepancy
    assert abs(err.achieved - ase(sc, "dl", fast)) < err.discrepancy
    with pytest.raises(ValueError):
        ase(sc, "sideways")
    with pytest.raises(ValueError, match="direction"):
        ase(sc, None)
    # an uplink with no noise and silent interferers has no finite ASE
    silent = SmallCellScenario(lam=10.0, p_small_dbm=-math.inf, mix=TddMix(alpha_d=1.0),
                               prop=PropagationParams(p_noise_dbm=-math.inf))
    with pytest.raises(IntegrationError, match="infinite"):
        ase(silent, "ul", fast)


def test_ase_sends_every_row_to_one_laplace_call_per_level(monkeypatch):
    # with no refinement allowed, a converged ASE runs one level of each
    # rule, so the rows of all 2 n_serving + 1 serving distances share
    # one Laplace call
    calls = []
    real = ppp_ase._laplace

    def spy(v, r, scenario, quad):
        calls.append(np.unique(r).size)
        return real(v, r, scenario, quad)

    monkeypatch.setattr(ppp_ase, "_laplace", spy)
    quad = QuadratureControl(**{**FAST_QUAD, "max_refinements": 0})
    sc = SmallCellScenario(lam=10.0, mix=TddMix(alpha_d=0.5))
    ase(sc, "dl", quad)
    assert calls == [2 * quad.n_serving + 1]


def _ase_by_coverage(sc, direction, quad):
    """E[log2(1 + SINR)] as the integral of the coverage CCDF against
    d gamma / (1 + gamma), in u = ln gamma over [-40, 0] and [0, 40],
    with each coverage value held to outer_abs_tol.  Level l takes the
    Gauss-Legendre rule of 16 * 2^l nodes on each half and sends all of
    its thresholds to one coverage call; the levels double until two
    agree to 1e-5 relative.  Returns the last two levels."""
    coverage = {"dl": coverage_ppp_dl, "ul": coverage_ppp_ul}[direction]
    levels = []
    for n in (16, 32, 64, 128, 256):
        x, w = np.polynomial.legendre.leggauss(n)
        u = 20.0 * np.concatenate((x - 1.0, x + 1.0))
        # d gamma / (1 + gamma) = du / (1 + e^{-u})
        integrand = coverage(10.0 * u / math.log(10.0), sc, quad) * 0.5 * (1.0 + np.tanh(0.5 * u))
        levels.append(20.0 * np.concatenate((w, w)) @ integrand / math.log(2.0))
        if len(levels) > 1 and abs(levels[-1] - levels[-2]) <= 1e-5 * levels[-1]:
            break
    return levels[-1], levels[-2]


@pytest.mark.parametrize("direction, alpha_d, lam, a_db", [
    # noise-limited: the ASE is 0.0047 bit/s/Hz, nearly all of it below 0 dB
    ("ul", 0.5, 5.0, 160.0),
    # every pair in uplink, so the interferers are weaker than the serving
    # power suggests: a g rule scaled by P and the noise alone stops short
    ("dl", 0.0, 50.0, 130.0),
], ids=["ul-noise-limited", "dl-weak-interferers"])
def test_ase_meets_its_tolerance_against_the_coverage_integral(direction, alpha_d, lam, a_db):
    # the same kernel orders on both sides; small ones keep the
    # reference's 96-224 coverage values cheap
    kernel = dict(FAST_QUAD, n_rho=16, n_x=12)
    sc = SmallCellScenario(lam=lam, prop=PropagationParams(k=0.4, a_db=a_db), mix=TddMix(alpha_d=alpha_d))
    quad = QuadratureControl(**kernel)
    reference, coarser = _ase_by_coverage(sc, direction, QuadratureControl(**dict(kernel, outer_abs_tol=1e-6,
                                                                                    max_refinements=4)))
    assert abs(reference - coarser) <= 1e-5 * reference
    assert abs(ase(sc, direction, quad) - reference) <= quad.ase_rel_tol * reference


# Coverage at lam 10 and k 0.4, from the angle-midpoint kernel that this
# package used before the angle was integrated in closed form, run at
# n_theta 256, n_rho 128, n_x and n_serving 96, inner_abs_tol 1e-9 and
# outer_abs_tol 1e-8: (alpha_d, direction) -> (threshold dB, coverage).
# That kernel missed these by up to 4.9e-3 at FAST_QUAD and by 3.7e-4 at
# the default quadrature, whose angle rules were never refined.
_ANGLE_CONVERGED_COVERAGE = {
    (0.0, "dl"): ((-4.0, 0.935042664), (0.0, 0.877944958), (4.0, 0.780640307)),
    (0.0, "ul"): ((-12.0, 0.780512498), (-8.0, 0.619506625), (-4.0, 0.412998106)),
    (0.5, "dl"): ((-10.0, 0.925737691), (0.0, 0.615048858), (10.0, 0.227555677)),
    (0.5, "ul"): ((-10.0, 0.256087009), (0.0, 0.035234343), (10.0, 0.004025225)),
}
# the downlink ASE at lam 10, alpha_d 1/2, from the same kernel at n_theta 128
_ANGLE_CONVERGED_ASE = 2.3187379


@pytest.mark.parametrize("quad", [QuadratureControl(**FAST_QUAD), QuadratureControl()],
                         ids=["fast", "default"])
def test_coverage_and_ase_meet_their_tolerance_against_an_angle_converged_reference(quad):
    for (alpha_d, direction), points in _ANGLE_CONVERGED_COVERAGE.items():
        sc = SmallCellScenario(lam=10.0, prop=PropagationParams(k=0.4), mix=TddMix(alpha_d=alpha_d))
        analytic = {"dl": coverage_ppp_dl, "ul": coverage_ppp_ul}[direction]
        for gamma_db, reference in points:
            value = analytic(gamma_db, sc, quad)
            assert abs(value - reference) <= quad.outer_abs_tol, (alpha_d, direction, gamma_db, value)
    value = ase(SmallCellScenario(lam=10.0, mix=TddMix(alpha_d=0.5)), "dl", quad)
    assert abs(value / _ANGLE_CONVERGED_ASE - 1.0) <= quad.ase_rel_tol
