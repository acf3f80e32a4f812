"""Tests for the closed-form interference series, SINR maps, and macro
coverage.  The frozen values below are earlier outputs of this code,
not independent evaluations; the independent checks (direct lattice
sums, positional averages, Monte Carlo) are tests of their own, here
and in the acceptance criteria."""

import itertools
import math

import numpy as np
import pytest

from tddgeom import (
    MacroNetwork,
    MobilePolar,
    PropagationParams,
    SeriesControl,
    ShadowingSpec,
    SinrParams,
    TddMix,
    TruncationError,
    a1,
    a2,
    beta_h,
    bruteforce_isr_dl,
    coverage_macro,
    downlink_inverse_sinr,
    inv_d,
    inv_u,
    isr_dl_dl,
    isr_total,
    isr_ul_dl,
    mc_coverage_macro,
    omega,
    shadowing_mean_factor,
    sinr_dl,
    sinr_ul,
    sum_series,
    uplink_inverse_sinr,
)
from tddgeom.macro_analytic import _beta_h_cached, _PatternMaps

XR = 1.0 / math.sqrt(3.0)

# frozen references, cross-validated against brute-force geometry
ISR_DL_03_B175 = 0.16130359962494345
BETA0_B175_K0 = 2.371384209289754
# computed with beta_h as a nested double sum at the default rel_tol
# 1e-10; it lies 6.9e-10 relative from the converged value
# 2.550300606349137e-4 (rel_tol 1e-15)
ISR_UL_DL_REF = 0.0002550300604582132
A1_B175_K0 = 14.228305255738523
A2_B175_K04 = 87737.33566432811
COV_DL_0DB = 0.6315790056187013
COV_UL_M20DB_K0 = 0.09268194824416516


def test_isr_dl_dl_frozen_value():
    assert isr_dl_dl(0.3, 1.75) == pytest.approx(ISR_DL_03_B175, rel=1e-12)


def test_isr_dl_dl_limits_and_domain():
    assert isr_dl_dl(0.0, 1.75) == 0.0
    with pytest.raises(ValueError):
        isr_dl_dl(1.0, 1.75)
    with pytest.raises(ValueError):
        isr_dl_dl(-0.1, 1.75)
    with pytest.raises(ValueError):
        isr_dl_dl(0.3, 1.0)


def test_isr_dl_dl_small_x_exponent():
    # leading behaviour is x^{2b}, so the log-log slope tends to 2b
    b = 1.75
    lo = isr_dl_dl(1e-3, b)
    hi = isr_dl_dl(2e-3, b)
    slope = math.log(hi / lo) / math.log(2.0)
    assert abs(slope - 2.0 * b) < 1e-5


def test_isr_dl_dl_monotone():
    vals = [isr_dl_dl(x, 1.75) for x in np.arange(0.05, 0.45, 0.05)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_isr_dl_dl_matches_positional_average():
    # the angle-averaged direct lattice sum and the series agree
    net = MacroNetwork(rings=300)
    prop = PropagationParams(two_b=3.5)
    angles = (np.arange(24) + 0.5) * (2.0 * math.pi / 24)
    avg = float(np.mean([bruteforce_isr_dl(MobilePolar(0.3, t), net, prop) for t in angles]))
    assert avg == pytest.approx(isr_dl_dl(0.3, prop.b), rel=2e-5)


def test_beta_h_frozen_value_and_domain():
    assert beta_h(0, 1.75, 0.0, XR) == pytest.approx(BETA0_B175_K0, rel=1e-12)
    with pytest.raises(ValueError):
        beta_h(-1, 1.75, 0.0, XR)
    with pytest.raises(ValueError):
        beta_h(0, 1.75, 1.5, XR)
    with pytest.raises(ValueError):
        beta_h(0, 1.75, 0.0, 0.8)


def test_beta_h_overflow_is_a_truncation():
    # the coefficients grow like (1 - R/delta)^{-2h} and leave the
    # double range near h = 400; that is a truncation, not a crash
    with pytest.raises(TruncationError):
        beta_h(420, 1.75, 0.4, XR)


def _beta_h_double_sum(h, b, k, r_over_delta, ctrl):
    # the mobile-to-mobile coefficient as the double sum over the two
    # disk positions: n <= h, and an inner series over i with m = n + i
    bk = b * k
    xr2 = r_over_delta * r_over_delta

    def inner(n):
        for i in itertools.count():
            m = n + i
            log_t = (2.0 * math.lgamma(b + h + m) - 2.0 * math.lgamma(b) - 2.0 * math.lgamma(n + 1)
                     - math.lgamma(h - n + 1) - math.lgamma(h + m + 1) - math.lgamma(i + 1))
            yield math.exp(log_t) * xr2**m * omega(b + h + m) / (m + bk + 1.0)

    return math.fsum(sum_series(inner(n), ctrl) for n in range(h + 1))


@pytest.mark.parametrize("b, k, r_over_delta", [(1.1, 0.0, XR), (1.75, 0.4, XR), (2.5, 1.0, 0.3)])
def test_beta_h_single_series_matches_the_double_sum(b, k, r_over_delta):
    # Vandermonde's identity sum_n C(h, n) C(m, n) = C(h+m, h) folds
    # the double sum into the one series that beta_h sums
    ctrl = SeriesControl(rel_tol=1e-15, max_terms=10_000)
    for h in (1, 2, 5, 20, 60):
        reference = _beta_h_double_sum(h, b, k, r_over_delta, ctrl)
        assert beta_h(h, b, k, r_over_delta, ctrl) == pytest.approx(reference, rel=1e-12), h


def test_beta_h_cache_ignores_max_terms():
    # max_terms only sets where a series gives up, so a coefficient
    # converged under one term cap serves every other
    value = beta_h(5, 1.3, 0.7, XR, SeriesControl(max_terms=600))
    hits = _beta_h_cached.cache_info().hits
    assert beta_h(5, 1.3, 0.7, XR) == value
    assert _beta_h_cached.cache_info().hits == hits + 1


def test_a1_frozen_value():
    assert a1(1.75, 0.0, XR) == pytest.approx(A1_B175_K0, rel=1e-12)


def test_a1_rejects_a_radius_outside_the_cell():
    assert a1(1.75, 0.4, 0.0) == 0.0
    # without power control the limit at the cell centre is 6 omega(b)
    assert a1(1.75, 0.0, 0.0) == 6.0 * omega(1.75)
    assert a1(1.75, 0.0, 1e-9) == pytest.approx(6.0 * omega(1.75), rel=1e-12)
    for r_over_delta in (-0.3, 0.9):
        with pytest.raises(ValueError):
            a1(1.75, 0.4, r_over_delta)


def test_a2_frozen_value_and_scalings():
    assert a2(1.75, 0.4, 1e4, 1.0) == pytest.approx(A2_B175_K04, rel=1e-12)
    # linear in the power ratio, delta enters only through delta^{-2bk}
    assert a2(1.75, 0.4, 2e4, 1.0) == pytest.approx(2.0 * A2_B175_K04, rel=1e-12)
    ratio = a2(1.75, 0.4, 1e4, 2.0) / a2(1.75, 0.4, 1e4, 1.0)
    assert ratio == pytest.approx(2.0 ** (-2.0 * 1.75 * 0.4), rel=1e-12)


def test_isr_ul_dl_frozen_value():
    val = isr_ul_dl(0.4, 1.75, 0.4, XR, 1e-4, SeriesControl(max_terms=400))
    assert val == pytest.approx(ISR_UL_DL_REF, rel=1e-11, abs=0)


def test_isr_ul_dl_limits_and_divergence():
    assert isr_ul_dl(0.0, 1.75, 0.4, XR, 1e-4) == 0.0
    # beyond the convergence radius 1 - R/delta the series must fail
    # loudly rather than return a number
    with pytest.raises(TruncationError):
        isr_ul_dl(0.5, 1.75, 0.4, XR, 1e-4, SeriesControl(max_terms=400))
    # just inside 1 - R/delta = 0.4226 the coefficients leave the
    # double range before the series converges
    with pytest.raises(TruncationError):
        isr_ul_dl(0.42, 1.75, 0.4, XR, 1e-4, SeriesControl(max_terms=600))


def test_isr_ul_dl_monotone():
    vals = [isr_ul_dl(x, 1.75, 0.4, XR, 1e-4) for x in np.arange(0.05, 0.42, 0.05)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_isr_total_breakdown_consistency():
    net = MacroNetwork()
    prop = PropagationParams()
    mix = TddMix(alpha_d=0.7)
    bd = isr_total(MobilePolar(0.3, 0.0), net, prop, mix)
    assert bd.total_dl == pytest.approx(
        mix.alpha_d * bd.dl_to_dl + mix.alpha_u * bd.ul_to_dl, rel=1e-15
    )
    assert bd.total_ul == pytest.approx(
        mix.alpha_u * bd.ul_to_ul + mix.alpha_d * bd.dl_to_ul, rel=1e-15
    )
    assert all(v > 0 for v in (bd.dl_to_dl, bd.ul_to_dl, bd.ul_to_ul, bd.dl_to_ul))


@pytest.mark.parametrize("k", [0.0, 0.4])
def test_isr_total_does_not_depend_on_propagation_factor(k):
    m, net, mix = MobilePolar(0.3, 0.0), MacroNetwork(), TddMix(alpha_d=0.5)
    outdoor = isr_total(m, net, PropagationParams(a_db=130.0, k=k), mix)
    assert isr_total(m, net, PropagationParams(a_db=160.0, k=k), mix) == outdoor


@pytest.mark.parametrize("k", [0.0, 0.4])
def test_isr_total_is_unchanged_by_scaling_the_layout(k):
    # power control sets uplink powers from absolute distances, so with
    # k > 0 the cross-direction terms (base station against mobile) move
    # when the layout is scaled
    prop, mix = PropagationParams(k=k), TddMix(alpha_d=0.5)
    small = isr_total(MobilePolar(0.3, 0.0), MacroNetwork(delta=1.0, cell_radius=0.5), prop, mix)
    large = isr_total(MobilePolar(0.6, 0.0), MacroNetwork(delta=2.0, cell_radius=1.0), prop, mix)
    names = ("dl_to_dl", "ul_to_dl", "ul_to_ul", "dl_to_ul") if k == 0.0 else ("dl_to_dl", "ul_to_ul")
    for name in names:
        assert getattr(large, name) == pytest.approx(getattr(small, name), rel=1e-12)


def test_isr_total_shadowing_scales_every_component():
    net = MacroNetwork()
    prop = PropagationParams()
    mix = TddMix(alpha_d=0.5)
    m = MobilePolar(0.25, 0.0)
    plain = isr_total(m, net, prop, mix)
    shadowed = isr_total(m, net, prop, mix, shadowing=ShadowingSpec(8.0))
    factor = shadowing_mean_factor(ShadowingSpec(8.0))
    assert factor > 1.0
    for name in ("dl_to_dl", "ul_to_dl", "ul_to_ul", "dl_to_ul", "total_dl", "total_ul"):
        assert getattr(shadowed, name) == pytest.approx(factor * getattr(plain, name), rel=1e-12)


def test_uplink_map_is_a_pure_power_law():
    net = MacroNetwork()
    prop = PropagationParams(k=0.4)
    mix = TddMix(alpha_d=0.5)
    expo = 2.0 * prop.b * (1.0 - prop.k)
    lo = uplink_inverse_sinr(0.1, net, prop, mix)
    hi = uplink_inverse_sinr(0.2, net, prop, mix)
    assert hi / lo == pytest.approx(2.0**expo, rel=1e-12)


def test_sinr_maps_are_reciprocal():
    net = MacroNetwork()
    prop = PropagationParams()
    mix = TddMix(alpha_d=0.5)
    x = 0.3
    assert sinr_dl(x, net, prop, mix) == pytest.approx(
        1.0 / downlink_inverse_sinr(x, net, prop, mix), rel=1e-14
    )
    assert sinr_ul(x, net, prop, mix) == pytest.approx(
        1.0 / uplink_inverse_sinr(x, net, prop, mix), rel=1e-14
    )
    assert sinr_dl(0.0, net, prop, mix) == math.inf


def test_inv_u_round_trip():
    net = MacroNetwork()
    prop = PropagationParams(k=0.4)
    mix = TddMix(alpha_d=0.5)
    params = SinrParams.from_model(net, prop)
    for x in (0.05, 0.2, 0.5):
        y = uplink_inverse_sinr(x, net, prop, mix, params)
        assert inv_u(y, prop.b, prop.k, mix, params) == pytest.approx(x, rel=1e-12)
    with pytest.raises(ValueError):
        inv_u(-1.0, prop.b, prop.k, mix, params)
    with pytest.raises(ValueError):
        inv_u(1.0, prop.b, 1.0, mix, params)


def test_inv_d_exact_round_trip():
    net = MacroNetwork()
    prop = PropagationParams()
    mix = TddMix(alpha_d=0.5)
    params = SinrParams.from_model(net, prop)
    for x in (0.05, 0.2, 0.45):
        y = downlink_inverse_sinr(x, net, prop, mix, params)
        back = inv_d(y, net, prop, mix, params)
        assert back == pytest.approx(x, rel=1e-10)
    edge = downlink_inverse_sinr(net.x_edge, net, prop, mix, params)
    assert inv_d(edge, net, prop, mix, params) == net.x_edge
    with pytest.raises(ValueError):
        inv_d(2.0 * edge, net, prop, mix, params)
    with pytest.raises(ValueError):
        inv_d(0.5 * edge, net, prop, mix, params, method="bisection")


def test_inv_d_series_accuracy_degrades_gracefully():
    net = MacroNetwork()
    prop = PropagationParams()
    mix = TddMix(alpha_d=1.0)
    params = SinrParams.from_model(net, prop)
    for x, tol in ((0.1, 5e-3), (0.3, 2e-2), (0.5, 5e-2)):
        y = downlink_inverse_sinr(x, net, prop, mix, params)
        approx = inv_d(y, net, prop, mix, params, method="series")
        assert abs(approx - x) / x < tol, (x, approx)


def test_coverage_macro_frozen_values():
    net = MacroNetwork()
    assert coverage_macro(0.0, "dl", net, PropagationParams(), TddMix(alpha_d=1.0)) == pytest.approx(
        COV_DL_0DB, rel=1e-10
    )
    assert coverage_macro(
        -20.0, "ul", net, PropagationParams(k=0.0), TddMix(alpha_d=0.5)
    ) == pytest.approx(COV_UL_M20DB_K0, rel=1e-10)


def test_coverage_macro_monotone_and_bounded():
    net = MacroNetwork()
    prop = PropagationParams()
    mix = TddMix(alpha_d=0.5)
    vals = [coverage_macro(g, "dl", net, prop, mix) for g in (-20.0, -10.0, 0.0, 10.0)]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    assert coverage_macro(-60.0, "dl", net, prop, mix) > 0.999


def test_coverage_macro_validation():
    net = MacroNetwork()
    prop = PropagationParams()
    with pytest.raises(ValueError):
        coverage_macro(0.0, "sideways", net, prop, TddMix())


def test_coverage_macro_mixed_downlink_matches_monte_carlo():
    # with half the cells in each direction a cell-edge user often sees
    # one dominant ring-1 cell silent; the coverage must average over
    # those direction patterns, not invert the mean interference
    net = MacroNetwork(rings=8)
    prop = PropagationParams()
    mix = TddMix(alpha_d=0.5)
    grid = np.array([0.0, 5.0, 10.0])
    curve = mc_coverage_macro(net, prop, mix, "dl", grid, 10000, seed=5)
    for g, mc in zip(grid, curve.value):
        analytic = coverage_macro(g, "dl", net, prop, mix)
        se = math.sqrt(mc * (1.0 - mc) / 10000)
        assert abs(analytic - mc) <= 3.0 * se, (g, analytic, mc, se)


def test_pattern_maps_increase_with_radius_and_split_the_lattice_sum():
    net = MacroNetwork()
    prop = PropagationParams(p_star_dbm=-200.0, p_noise_dbm=-math.inf)
    maps = _PatternMaps(net, prop, TddMix(alpha_d=0.5), SinrParams.from_model(net, prop), None)
    xs = np.linspace(0.01, net.x_edge, 60)
    for theta_node in (0, 7, 15):
        for pattern in (0, 1, 0b101010, 63):
            row = 64 * theta_node + pattern
            cos = np.repeat(maps.cosines[row : row + 1], xs.size, axis=0)
            pat = np.repeat(maps.patterns[row : row + 1], xs.size, axis=0)
            value, slope = maps(xs, cos, pat)
            assert np.all(np.diff(value) > 0) and np.all(slope > 0), (theta_node, pattern)
            h = 1e-6
            numeric = (maps(xs + h, cos, pat)[0] - maps(xs - h, cos, pat)[0]) / (2.0 * h)
            assert np.allclose(slope, numeric, rtol=1e-6), (theta_node, pattern)

    # with the uplink pairs silent, no noise and alpha_d = 1/2: the
    # all-uplink map is F/2 and the all-downlink map adds ring 1, so
    # their sum, averaged over the sector nodes, is the full lattice sum
    all_ul = maps.patterns.sum(axis=1) == 0
    all_dl = maps.patterns.sum(axis=1) == 6
    for x in (0.1, 0.3, 0.5, net.x_edge):
        at = np.full(maps.weights.size, x)
        value = maps(at, maps.cosines, maps.patterns)[0]
        split = float(np.mean(value[all_dl]) + np.mean(value[all_ul]))
        assert split == pytest.approx(isr_dl_dl(x, prop.b), rel=1e-10), x
