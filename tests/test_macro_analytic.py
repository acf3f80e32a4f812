"""Tests for the closed-form interference series, SINR maps, and macro
coverage.  The frozen values below are earlier outputs of this code,
not independent evaluations; the independent checks (direct lattice
sums, positional averages, Monte Carlo) are tests of their own, here
and in the acceptance criteria."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.optimize

from tddgeom import (
    IsrBreakdown,
    MacroNetwork,
    MobilePolar,
    PropagationParams,
    SeriesControl,
    ShadowingSpec,
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
from tddgeom.macro_analytic import _downlink_map, _DownlinkMap, _uplink_coefficient
from tddgeom.macro_isr import _beta_h_cached
from tddgeom.specfun import _taylor_values

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
    # double range at h = 412; that is a truncation, not a crash
    assert math.isfinite(beta_h(411, 1.75, 0.4, XR))
    for h in (412, 420):
        with pytest.raises(TruncationError, match=f"beta_h coefficient {h} exceeds the double-precision range"):
            beta_h(h, 1.75, 0.4, XR)


def _beta_h_scalar(h, b, k, r_over_delta, rel_tol=1e-10):
    # the coefficient's series term by term, by the ratio of successive
    # terms, summed by sum_series within the budget of 6h + 120 terms
    bk = b * k
    xr2 = r_over_delta * r_over_delta

    def terms():
        t = math.exp(2.0 * (math.lgamma(b + h) - math.lgamma(b) - math.lgamma(h + 1.0)))
        t *= omega(b + h) / (bk + 1.0)
        for m in itertools.count():
            yield t
            s = b + h + m
            t *= (s / (m + 1.0)) ** 2 * xr2 * (m + bk + 1.0) / (m + bk + 2.0) * omega(s + 1.0) / omega(s)

    return sum_series(terms(), SeriesControl(rel_tol=rel_tol, max_terms=6 * h + 120))


@pytest.mark.parametrize("b, k, r_over_delta", [
    (1.75, 0.4, XR), (1.75, 0.0, XR), (2.0, 0.4, XR), (1.3, 0.7, XR), (1.1, 0.0, XR), (2.5, 1.0, 0.3),
])
def test_beta_h_blocks_match_the_scalar_series_up_to_the_first_overflow(b, k, r_over_delta):
    # beta_h sums eight series at a time along the rows of an array; each
    # coefficient must be the one-term-at-a-time sum, and must overflow
    # at the same index
    h = 0
    while math.isfinite(reference := _beta_h_scalar(h, b, k, r_over_delta)):
        assert beta_h(h, b, k, r_over_delta) == pytest.approx(reference, rel=1e-13, abs=0.0), h
        h += 1
    assert h > 400
    with pytest.raises(TruncationError, match="exceeds the double-precision range"):
        beta_h(h, b, k, r_over_delta)


def test_beta_h_that_does_not_converge_within_its_budget_says_so():
    # at rel_tol 1e-300 the 120 terms of beta_0 never fall small enough
    with pytest.raises(TruncationError, match="did not converge within 120 terms") as info:
        beta_h(0, 1.75, 0.4, XR, SeriesControl(rel_tol=1e-300))
    assert info.value.terms == 120
    assert info.value.partial == 1.5654911728065872
    with pytest.raises(TruncationError) as scalar:
        _beta_h_scalar(0, 1.75, 0.4, XR, rel_tol=1e-300)
    assert str(scalar.value) == str(info.value)


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


@pytest.mark.parametrize("component, value, error", [
    ("dl_to_dl", -1e-300, ValueError), ("ul_to_dl", math.nan, TypeError),
    ("ul_to_ul", -math.inf, ValueError), ("dl_to_ul", math.nan, TypeError),
])
def test_isr_breakdown_refuses_a_negative_or_nan_component(component, value, error):
    parts = {"dl_to_dl": 0.1, "ul_to_dl": 0.0, "ul_to_ul": math.inf, "dl_to_ul": 0.2,
             "total_dl": 0.1, "total_ul": math.inf}
    assert IsrBreakdown(**parts).ul_to_ul == math.inf  # zero and +inf are components
    with pytest.raises(error, match=f"{component} must "):
        IsrBreakdown(**dict(parts, **{component: value}))


def test_a1_frozen_value():
    assert a1(1.75, 0.0, XR) == pytest.approx(A1_B175_K0, rel=1e-12)


@pytest.mark.parametrize("r, theta, error", [
    (-0.1, 0.0, ValueError), (math.inf, 0.0, ValueError), (math.nan, 0.0, TypeError),
    (True, 0.0, TypeError), (0.3, math.nan, TypeError), (0.3, -math.inf, ValueError),
    (0.3, True, TypeError), (0.3, "0.1", TypeError),
])
def test_mobile_polar_validation(r, theta, error):
    with pytest.raises(error):
        MobilePolar(r, theta)


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
    for x in (0.05, 0.2, 0.5):
        y = uplink_inverse_sinr(x, net, prop, mix)
        assert inv_u(y, net, prop, mix) == pytest.approx(x, rel=1e-12)
    with pytest.raises(ValueError):
        inv_u(-1.0, net, prop, mix)
    with pytest.raises(ValueError):
        inv_u(1.0, net, PropagationParams(k=1.0), mix)


def test_inv_d_exact_round_trip():
    net = MacroNetwork()
    prop = PropagationParams()
    mix = TddMix(alpha_d=0.5)
    for x in (0.05, 0.2, 0.45):
        y = downlink_inverse_sinr(x, net, prop, mix)
        back = inv_d(y, net, prop, mix)
        assert back == pytest.approx(x, rel=1e-10)
    edge = downlink_inverse_sinr(net.x_edge, net, prop, mix)
    assert inv_d(edge, net, prop, mix) == net.x_edge
    with pytest.raises(ValueError):
        inv_d(2.0 * edge, net, prop, mix)
    with pytest.raises(ValueError):
        inv_d(0.5 * edge, net, prop, mix, method="bisection")


def test_inv_d_series_accuracy_degrades_gracefully():
    net = MacroNetwork()
    prop = PropagationParams()
    mix = TddMix(alpha_d=1.0)
    for x, tol in ((0.1, 5e-3), (0.3, 2e-2), (0.5, 5e-2)):
        y = downlink_inverse_sinr(x, net, prop, mix)
        approx = inv_d(y, net, prop, mix, method="series")
        assert abs(approx - x) / x < tol, (x, approx)


# a model away from every default: half load, 2 km spacing, a user disk
# smaller than the hexagon (x_edge = 0.4)
OTHER_NET = MacroNetwork(delta=2.0, cell_radius=0.8, load_eta=0.5)


def test_maps_invert_on_a_non_default_network():
    prop = PropagationParams(k=0.4)
    mix = TddMix(alpha_d=0.5)
    for x in (0.05, 0.2, 0.38):
        y = uplink_inverse_sinr(x, OTHER_NET, prop, mix)
        assert inv_u(y, OTHER_NET, prop, mix) == pytest.approx(x, rel=1e-12)
        y = downlink_inverse_sinr(x, OTHER_NET, prop, mix)
        assert inv_d(y, OTHER_NET, prop, mix) == pytest.approx(x, rel=1e-10)


@pytest.mark.parametrize("net", [MacroNetwork(), OTHER_NET], ids=["default-net", "other-net"])
@pytest.mark.parametrize("k", [0.0, 0.4, 1.0])
@pytest.mark.parametrize("alpha_d", [0.0, 0.5, 1.0])
def test_downlink_map_and_inverses_match_the_series_under_brent(net, k, alpha_d):
    # an oracle shared with neither the Taylor tables nor the Newton
    # iteration: the ISR series composed into the mean map, inverted by
    # scipy's Brent
    prop, mix = PropagationParams(k=k), TddMix(alpha_d=alpha_d)
    b, x_edge = prop.b, net.x_edge
    y0 = prop.p_noise_mw * net.delta ** (2.0 * b) / prop.p_dl_mw

    def reference(x):
        mobile = isr_ul_dl(min(x, 0.9 * (1.0 - x_edge)), b, k, x_edge, prop.p_star_over_p, delta=net.delta)
        return net.load_eta * (alpha_d * isr_dl_dl(x, b) + mix.alpha_u * mobile) + y0 * x ** (2.0 * b)

    def brent(y):
        return scipy.optimize.brentq(lambda x: reference(x) - y, 0.0, x_edge, xtol=1e-15 * x_edge,
                                     rtol=4.0 * np.finfo(float).eps)

    for x in np.linspace(0.02, 0.98 * x_edge, 12):
        y = reference(x)
        assert downlink_inverse_sinr(x, net, prop, mix) == pytest.approx(y, rel=2e-10), x
        assert inv_d(y, net, prop, mix) == pytest.approx(brent(y), rel=1e-10), x
    assert downlink_inverse_sinr(x_edge, net, prop, mix) == pytest.approx(reference(x_edge), rel=2e-10)
    # the two-term series inverse is off by O(x^4) only: 3.3e-7 at x = 0.02
    y = reference(0.02)
    assert inv_d(y, net, prop, mix, method="series") == pytest.approx(brent(y), rel=1e-6)
    if alpha_d in (0.0, 1.0):
        for g in np.arange(-20.0, 20.1, 2.5):
            y = 10.0 ** (-g / 10.0)
            expected = 1.0 if reference(x_edge) <= y else (brent(y) / x_edge) ** 2
            assert coverage_macro(g, "dl", net, prop, mix) == pytest.approx(expected, rel=1e-11), g


def test_downlink_map_rejects_a_radius_outside_the_cell():
    # the map's tables are cut at the cell edge
    prop, mix = PropagationParams(), TddMix(alpha_d=0.5)
    for net in (MacroNetwork(), OTHER_NET):
        assert downlink_inverse_sinr(net.x_edge, net, prop, mix) > 0.0
        for x in (-0.1, net.x_edge * (1.0 + 1e-9), net.x_edge + 0.05):
            with pytest.raises(ValueError):
                downlink_inverse_sinr(x, net, prop, mix)
            with pytest.raises(ValueError):
                sinr_dl(x, net, prop, mix)


@pytest.mark.parametrize("direction, alpha_d, grid", [
    ("dl", 0.5, (10.0, 15.0, 20.0)), ("dl", 1.0, (10.0, 15.0, 20.0)), ("ul", 0.5, (-30.0, -25.0, -20.0)),
])
def test_coverage_macro_reads_the_load_factor(direction, alpha_d, grid):
    # without noise every map is eta times the full-load one, so halving
    # the load is worth a threshold 10 log10(2) dB higher
    prop = PropagationParams(k=0.4, p_noise_dbm=-math.inf)
    mix = TddMix(alpha_d=alpha_d)
    full = MacroNetwork(delta=2.0, cell_radius=0.8)
    shift = 10.0 * math.log10(0.5)
    for g in grid:
        half_load = coverage_macro(g, direction, OTHER_NET, prop, mix)
        assert 0.0 < half_load < 1.0
        assert half_load == pytest.approx(coverage_macro(g + shift, direction, full, prop, mix), rel=1e-8)


@pytest.mark.parametrize("direction, alpha_d, gamma_db", [("dl", 0.5, 15.0), ("dl", 1.0, 15.0), ("ul", 0.5, -25.0)])
def test_coverage_macro_alternating_networks_keep_their_values(direction, alpha_d, gamma_db):
    # the model-level caches must key on every field of the network
    prop = PropagationParams(k=0.4)
    mix = TddMix(alpha_d=alpha_d)
    nets = (MacroNetwork(delta=2.0, cell_radius=0.8), OTHER_NET)
    fresh = []
    for net in nets:
        _downlink_map.cache_clear()
        _uplink_coefficient.cache_clear()
        fresh.append(coverage_macro(gamma_db, direction, net, prop, mix))
    assert fresh[0] != fresh[1]
    for _ in range(2):
        for net, value in zip(nets, fresh):
            assert coverage_macro(gamma_db, direction, net, prop, mix) == value


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
    with pytest.raises(ValueError):
        coverage_macro(np.zeros((2, 2)), "dl", net, prop, TddMix())


def test_full_power_control_makes_uplink_coverage_a_step():
    # at k = 1 the power control cancels the path loss of the own link
    # and of every interfering mobile, so the uplink SINR is -46.4 dB at
    # every radius and coverage is 1 below it and 0 above it
    net, prop, mix = MacroNetwork(), PropagationParams(k=1.0), TddMix(alpha_d=0.5)
    sinr_db = {10.0 * math.log10(sinr_ul(x, net, prop, mix)) for x in (0.01, 0.2, net.x_edge)}
    assert len(sinr_db) == 1 and -46.5 < min(sinr_db) < -46.4
    assert coverage_macro(-50.0, "ul", net, prop, mix) == 1.0
    assert coverage_macro(-40.0, "ul", net, prop, mix) == 0.0
    grid = np.arange(-60.0, -30.0, 0.5)
    values = coverage_macro(grid, "ul", net, prop, mix).tolist()
    assert values == [coverage_macro(g, "ul", net, prop, mix) for g in grid.tolist()]
    assert values == [1.0 if g < min(sinr_db) else 0.0 for g in grid.tolist()]


# a model whose uplink map is identically zero: no noise, and no
# interferer, since every other cell is a downlink cell of zero power
_SILENT_UPLINK = (MacroNetwork(), PropagationParams(p_dl_dbm=-math.inf, p_noise_dbm=-math.inf), TddMix(alpha_d=1.0))
# and one whose downlink map is: every other cell is an uplink cell of
# zero power
_SILENT_DOWNLINK = (MacroNetwork(), PropagationParams(p_star_dbm=-math.inf, p_noise_dbm=-math.inf),
                    TddMix(alpha_d=0.0))


@pytest.mark.parametrize("call, message", [
    (lambda: beta_h(0, 1.0, 0.4, 0.5), r"b must lie in \(1, inf\), got 1.0"),
    (lambda: a2(0.9, 0.4, 1e4), r"b must lie in \(1, inf\), got 0.9"),
    (lambda: a1(1.0, 0.4, 0.5), r"b must lie in \(1, inf\), got 1.0"),
    (lambda: a1(1.75, 1.5, 0.5), r"k must lie in \[0, 1\], got 1.5"),
    (lambda: a1(1.75, -0.1, 0.5), r"k must lie in \[0, 1\], got -0.1"),
    (lambda: isr_ul_dl(1.0, 1.75, 0.4, 0.5, 1e-4), r"x must lie in \[0, 1\), got 1.0"),
    (lambda: isr_ul_dl(-0.1, 1.75, 0.4, 0.5, 1e-4), r"x must lie in \[0, 1\), got -0.1"),
    (lambda: inv_u(1.0, *_SILENT_UPLINK), r"y must lie in \(0, 0\], got 1.0"),
    (lambda: inv_d(0.0, MacroNetwork(), PropagationParams(), TddMix()), r"y must lie in \(0, [0-9.e+-]+\], got 0.0"),
    (lambda: inv_d(-1.0, MacroNetwork(), PropagationParams(), TddMix()), r"y must lie in \(0, [0-9.e+-]+\], got -1.0"),
    (lambda: inv_d(1.0, *_SILENT_DOWNLINK, method="series"), r"y must lie in \(0, 0\], got 1.0"),
], ids=["beta_h-b", "a2-b", "a1-b", "a1-k-high", "a1-k-low", "isr_ul_dl-x-one", "isr_ul_dl-x-negative",
        "inv_u-silent", "inv_d-zero", "inv_d-negative", "inv_d-series-silent"])
def test_public_inputs_outside_their_domain_raise(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("alpha_d", [0.2, 0.5, 1.0])
@pytest.mark.parametrize("k", [0.0, 0.4])
def test_a_coverage_grid_gives_each_threshold_its_one_threshold_value(alpha_d, k):
    # every (threshold, row) unknown converges on its own, so a value
    # does not depend on the grid or the block it is solved in
    net = MacroNetwork()
    prop = PropagationParams(k=k)
    mix = TddMix(alpha_d=alpha_d)
    grid = np.arange(-30.0, 30.1, 2.5)
    for direction in ("dl", "ul"):
        curve = coverage_macro(grid, direction, net, prop, mix)
        assert isinstance(curve, np.ndarray) and curve.shape == grid.shape
        single = [coverage_macro(float(g), direction, net, prop, mix) for g in grid]
        assert all(isinstance(v, float) for v in single)
        assert [v.hex() for v in curve.tolist()] == [v.hex() for v in single], direction
        backward = coverage_macro(grid[::-1], direction, net, prop, mix)[::-1]
        assert [v.hex() for v in backward.tolist()] == [v.hex() for v in single], direction
    assert coverage_macro(np.array([]), "dl", net, prop, mix).shape == (0,)


def test_a_long_downlink_grid_is_solved_in_bounded_memory():
    # the unknowns are solved in blocks of whole thresholds, so 400
    # thresholds hold no more than 4 do
    net, prop, mix = MacroNetwork(), PropagationParams(), TddMix(alpha_d=0.5)
    coverage_macro(0.0, "dl", net, prop, mix)  # build the maps outside the trace

    def peak_mb(grid):
        tracemalloc.start()
        try:
            coverage_macro(grid, "dl", net, prop, mix)
            return tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()

    # from 0 dB up, every row of every threshold crosses inside the cell
    few = peak_mb(np.linspace(0.0, 20.0, 4))
    many = peak_mb(np.linspace(0.0, 20.0, 400))
    assert many - few < 0.5, (few, many)


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


def _two_pass_maps(maps, x, rows):
    # the maps summed as the far table's pass plus ring 1 plus the mobile
    # table's own pass, frozen from x_clamp on
    value, slope = _taylor_values(x, maps.far, maps.b)
    for cosines, patterns in zip(maps.cosines, maps.patterns):
        xc = x * cosines[rows]
        q = 1.0 - 2.0 * xc + x * x
        term = (x * x / q) ** maps.b * patterns[rows]
        value += maps.eta * term
        slope += maps.eta * 2.0 * maps.b * term * (1.0 - xc) / (x * q)
    below = x < maps.x_clamp
    mobile_value = np.full(x.size, maps.mobile_clamped)
    mobile_slope = np.zeros(x.size)
    mobile_value[below], mobile_slope[below] = _taylor_values(x[below], maps.mobile, maps.b)
    return value + mobile_value, slope + mobile_slope


@pytest.mark.parametrize("two_b, k, alpha_d", [(3.5, 0.4, 0.5), (3.5, 0.4, 1.0), (4.0, 0.0, 0.0), (3.0, 1.0, 0.2)])
def test_merged_map_tables_give_the_two_pass_sum(two_b, k, alpha_d):
    # below x_clamp one pass of the far and mobile tables merged, from it
    # on the far pass plus the frozen mobile term; for the one-row mean
    # map, and at mixed alpha_d for the ring-1 map too
    net = MacroNetwork()
    prop, mix = PropagationParams(two_b=two_b, k=k), TddMix(alpha_d=alpha_d)
    for ring1 in (False, True) if 0.0 < alpha_d < 1.0 else (False,):
        maps = _DownlinkMap(net, prop, mix, None, ring1)
        x = np.append(np.linspace(0.005, net.x_edge, 400), maps.x_clamp)
        assert (x < maps.x_clamp).sum() > 100 and (x >= maps.x_clamp).sum() > 100
        rows = np.arange(x.size) % maps.weights.size
        for merged, two_pass in zip(maps(x, rows), _two_pass_maps(maps, x, rows)):
            assert np.all(np.abs(merged - two_pass) <= 1e-15 * two_pass), ring1


def test_pattern_maps_increase_with_radius_and_split_the_lattice_sum():
    net = MacroNetwork()
    prop = PropagationParams(p_star_dbm=-200.0, p_noise_dbm=-math.inf)
    maps = _DownlinkMap(net, prop, TddMix(alpha_d=0.5), None, True)
    xs = np.linspace(0.01, net.x_edge, 60)
    for theta_node in (0, 7, 15):
        for pattern in (0, 1, 0b101010, 63):
            rows = np.full(xs.size, 64 * theta_node + pattern)
            value, slope = maps(xs, rows)
            assert np.all(np.diff(value) > 0) and np.all(slope > 0), (theta_node, pattern)
            h = 1e-6
            numeric = (maps(xs + h, rows)[0] - maps(xs - h, rows)[0]) / (2.0 * h)
            assert np.allclose(slope, numeric, rtol=1e-6), (theta_node, pattern)

    # with the uplink pairs silent, no noise and alpha_d = 1/2: the
    # all-uplink map is F/2 and the all-downlink map adds ring 1, so
    # their sum, averaged over the sector nodes, is the full lattice sum
    all_ul = maps.patterns.sum(axis=0) == 0
    all_dl = maps.patterns.sum(axis=0) == 6
    for x in (0.1, 0.3, 0.5, net.x_edge):
        at = np.full(maps.weights.size, x)
        value = maps(at, np.arange(maps.weights.size))[0]
        split = float(np.mean(value[all_dl]) + np.mean(value[all_ul]))
        assert split == pytest.approx(isr_dl_dl(x, prop.b), rel=1e-10), x
