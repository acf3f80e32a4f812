"""Series evaluation of the four macro-cell ISR components, the SINR
maps built from them, their inverses, and the resulting coverage
probability.

All positional quantities are normalized by the lattice spacing:
x = r / delta is the user radius, r_over_delta = R / delta the user-disk
radius.  The series give the interference averaged over the user's
angular coordinate; position-resolved values live in
:mod:`tddgeom.hexgrid` and the two routes are cross-checked in the test
suite.

A structural caution on the mobile-to-mobile term: the series behind
:func:`isr_ul_dl` has convergence radius x = 1 - R/delta.  At that
radius the typical user's circle touches the interfering users' disks,
arbitrarily close interferers become possible, and the mean
interference is genuinely infinite.  The component function reports
non-convergence honestly; the SINR map freezes that one term just
inside the radius (see :func:`downlink_inverse_sinr`) so that coverage,
a quantile-type quantity that stays finite, remains computable across
the whole cell.

Coverage with mixed directions.  Each interfering cell transmits
downlink with probability alpha_d, independently of the others.  Near
the cell edge one ring-1 cell dominates the downlink interference, and
with probability alpha_u it is receiving uplink instead, so the
interference is bimodal.  Its mean then crosses the threshold at a
radius where the user is in fact covered part of the time, and
inverting the mean map understates coverage (by 0.08 at alpha_d = 1/2
and +5 dB).  For 0 < alpha_d < 1, :func:`coverage_macro` therefore
averages the downlink coverage over the user angle and over the 64
direction patterns of the six ring-1 cells: those cells are resolved at
the user's position, and the rest of the lattice keeps the mean-field
series.  With alpha_d in {0, 1} there is a single pattern, and coverage
inverts the ISR map as before.  Uplink coverage stays mean-field, in
closed form; its largest gap to the Monte Carlo is 0.010 at
alpha_d = 1/2.  The ISR maps themselves are unchanged.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import TruncationError
from .params import MacroNetwork, MobilePolar, PropagationParams, TddMix, check_direction
from .specfun import SeriesControl, ShadowingSpec, omega, shadowing_mean_factor, sum_series

__all__ = [
    "IsrBreakdown",
    "SinrParams",
    "isr_dl_dl",
    "beta_h",
    "isr_ul_dl",
    "a1",
    "a2",
    "isr_total",
    "downlink_inverse_sinr",
    "uplink_inverse_sinr",
    "sinr_dl",
    "sinr_ul",
    "inv_u",
    "inv_d",
    "coverage_macro",
]

# the mobile-to-mobile series diverges where the user circle reaches the
# interferer disks; the SINR map freezes it at this fraction of that radius
_CROSS_TERM_CLAMP = 0.9

# the six ring-1 sites at unit spacing, and every direction pattern they
# can take: entry (p, j) is 1 when site j transmits downlink in pattern p
_RING1_ANGLES = math.pi / 3.0 * np.arange(6)
_RING1_PATTERNS = ((np.arange(64)[:, None] >> np.arange(6)) & 1).astype(float)
# midpoint nodes in the user angle on the symmetry sector [0, pi/6];
# doubling them moves downlink coverage by at most 2.5e-5 (alpha_d in
# {0.2, 0.5, 0.9}, k in {0, 0.4, 1}, -20 to +20 dB)
_SECTOR_ANGLES = 16


def isr_dl_dl(x, b, ctrl=None):
    """Cell-to-cell interference-to-signal ratio at normalized radius x.

    Parameters
    ----------
    x : float
        User distance over lattice spacing, 0 <= x < 1/sqrt(3).
    b : float
        Half the path-loss exponent, b > 1.
    ctrl : SeriesControl, optional
        Truncation policy for the hypergeometric-type series.

    Returns
    -------
    float
        (6 x^{2b} / Gamma(b)^2) * sum_h [Gamma(b+h)^2 / Gamma(h+1)^2]
        * omega(b+h) * x^{2h}, the lattice interference sum averaged
        over the user's angular position.

    Raises
    ------
    TruncationError
        If the series has not converged within ``ctrl.max_terms``.
    """
    if x == 0:
        return 0.0
    if not 0 < x < 1:
        raise ValueError(f"normalized radius must be in [0, 1), got {x}")
    if b <= 1:
        raise ValueError(f"b must exceed 1, got {b}")

    def terms():
        t = omega(b)
        h = 0
        while True:
            yield t
            ratio = ((b + h) / (h + 1.0)) ** 2 * x * x
            t *= ratio * omega(b + h + 1) / omega(b + h)
            h += 1

    return 6.0 * x ** (2.0 * b) * sum_series(terms(), ctrl)


def _check_r_over_delta(r_over_delta):
    if not 0 < r_over_delta <= 1 / math.sqrt(3.0) * (1 + 1e-12):
        raise ValueError(f"r_over_delta must lie in (0, 1/sqrt(3)], got {r_over_delta}")


@lru_cache(maxsize=None)
def _beta_h_cached(h, b, k, r_over_delta, rel_tol):
    bk = b * k
    xr2 = r_over_delta * r_over_delta

    def terms():
        t = math.exp(2.0 * (math.lgamma(b + h) - math.lgamma(b) - math.lgamma(h + 1.0)))
        t *= omega(b + h) / (bk + 1.0)
        m = 0
        while True:
            yield t
            s = b + h + m
            t *= (s / (m + 1.0)) ** 2 * xr2 * (m + bk + 1.0) / (m + bk + 2.0) * omega(s + 1.0) / omega(s)
            m += 1

    # the budget only decides where the series gives up, never the
    # value it converges to, so it is no part of the key
    total = sum_series(terms(), SeriesControl(rel_tol=rel_tol, max_terms=6 * h + 120))
    if not math.isfinite(total):
        # the coefficients grow like (1 - r_over_delta)^{-2h}
        raise TruncationError(f"beta_h coefficient {h} exceeds the double-precision range", terms=h)
    return total


def beta_h(h, b, k, r_over_delta, ctrl=None):
    """Coefficient of x^{2h} in the mobile-to-mobile interference series.

    Parameters
    ----------
    h : int
        Series index, h >= 0.
    b, k : float
        Half path-loss exponent (b > 1) and power-control fraction
        (0 <= k <= 1).
    r_over_delta : float
        User-disk radius over lattice spacing, in (0, 1/sqrt(3)].
    ctrl : SeriesControl, optional

    Notes
    -----
    Each coefficient is one series, the double sum over both disk
    positions collapsed by Vandermonde's identity
    sum_n C(h, n) C(m, n) = C(h+m, h):

        beta_h = sum_{m>=0} [Gamma(b+h+m) / (Gamma(b) h! m!)]^2
                 (R/delta)^{2m} omega(b+h+m) / (m + bk + 1).

    At h = 0 it is the :func:`a1` series.  Results are cached.  Only
    ``ctrl.rel_tol`` is used; the term budget is 6h + 120, as the terms
    peak near m = h (R/delta) / (1 - R/delta).  The coefficients grow
    like (1 - r_over_delta)^{-2h}, so the series in x needs x < 1 - R/delta.

    Raises
    ------
    TruncationError
        If the coefficient exceeds the double-precision range (from
        h = 412 on at b = 1.75, k = 0.4, r_over_delta = 1/sqrt(3)).
    """
    if h < 0:
        raise ValueError(f"series index must be non-negative, got {h}")
    if b <= 1:
        raise ValueError(f"b must exceed 1, got {b}")
    if not 0 <= k <= 1:
        raise ValueError(f"power-control fraction must lie in [0, 1], got {k}")
    _check_r_over_delta(r_over_delta)
    rel_tol = SeriesControl().rel_tol if ctrl is None else ctrl.rel_tol
    return _beta_h_cached(int(h), float(b), float(k), float(r_over_delta), rel_tol)


def isr_ul_dl(x, b, k, r_over_delta, p_star_over_p, ctrl=None, delta=1.0):
    """Mobile-to-mobile interference-to-signal ratio at normalized radius x.

    Parameters
    ----------
    x : float
        User distance over lattice spacing.
    b, k, r_over_delta : float
        As in :func:`beta_h`.
    p_star_over_p : float
        Uplink-to-downlink power ratio P*/P.
    ctrl : SeriesControl, optional
    delta : float, optional
        Lattice spacing; enters only through the power-control factor
        R^{2bk} with R = r_over_delta * delta.

    Returns
    -------
    float
        6 (P*/P) x^{2b} R^{2bk} * sum_h beta_h x^{2h}, the
        interference from one power-controlled mobile per interfering
        cell, averaged over all user positions involved.

    Raises
    ------
    TruncationError
        If the series does not converge.  For x >= 1 - r_over_delta,
        where interfering mobiles can come arbitrarily close to the
        typical user and the mean diverges, it is raised at once.
    """
    if x == 0:
        return 0.0
    if not 0 < x < 1:
        raise ValueError(f"normalized radius must be in [0, 1), got {x}")
    if x >= 1.0 - r_over_delta:
        raise TruncationError(
            f"the mobile-to-mobile series diverges at x = {x} >= 1 - R/delta = {1.0 - r_over_delta}",
            terms=0,
        )

    def terms():
        h = 0
        while True:
            yield beta_h(h, b, k, r_over_delta, ctrl) * x ** (2 * h)
            h += 1

    big_r = r_over_delta * delta
    prefactor = 6.0 * p_star_over_p * x ** (2.0 * b) * big_r ** (2.0 * b * k)
    return prefactor * sum_series(terms(), ctrl)


def a1(b, k, r_over_delta, ctrl=None):
    """Mobile-to-cell interference coefficient.

    The uplink ISR caused by interfering mobiles is a1 * x^{2b(1-k)},
    a1 = 6 (R/delta)^{2bk} beta_0.  Its series is the h = 0 case of
    :func:`beta_h`, summed here by its own copy, which acceptance
    criterion 02 checks.  At r_over_delta = 0 it takes its limit:
    6 omega(b) without power control (k = 0), 0 with it.
    """
    if b <= 1:
        raise ValueError(f"b must exceed 1, got {b}")
    if not 0 <= k <= 1:
        raise ValueError(f"power-control fraction must lie in [0, 1], got {k}")
    if r_over_delta == 0:
        return 6.0 * omega(b) if k == 0 else 0.0
    _check_r_over_delta(r_over_delta)
    bk = b * k
    xr2 = r_over_delta * r_over_delta

    def terms():
        t = omega(b) / (bk + 1.0)
        h = 0
        while True:
            yield t
            t *= (
                ((b + h) / (h + 1.0)) ** 2
                * xr2
                * (bk + h + 1.0) / (bk + h + 2.0)
                * omega(b + h + 1.0) / omega(b + h)
            )
            h += 1

    return 6.0 * r_over_delta ** (2.0 * bk) * sum_series(terms(), ctrl)


def a2(b, k, p_over_pstar, delta=1.0):
    """Cell-to-mobile interference coefficient.

    The uplink ISR caused by downlink cells is a2 * x^{2b(1-k)}: the
    full-lattice sum 6 omega(b) delta^{-2b} of cell powers P, divided by
    the power-controlled useful signal P* r^{-2b(1-k)}.
    """
    if b <= 1:
        raise ValueError(f"b must exceed 1, got {b}")
    return 6.0 * p_over_pstar * omega(b) * delta ** (-2.0 * b * k)


@dataclass(frozen=True)
class IsrBreakdown:
    """The four interference-to-signal components at one user radius and
    their duplexing-weighted totals."""

    dl_to_dl: float
    ul_to_dl: float
    ul_to_ul: float
    dl_to_ul: float
    total_dl: float
    total_ul: float

    def __post_init__(self):
        for name in ("dl_to_dl", "ul_to_dl", "ul_to_ul", "dl_to_ul"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


def isr_total(m, net, prop, mix, shadowing=None, ctrl=None):
    """All four ISR components for a user at ``m``, with totals weighted
    by the duplexing mix: downlink total alpha_d * cell_term + alpha_u *
    mobile_term, uplink total alpha_u * mobile_term + alpha_d *
    cell_term.

    Lognormal shadowing, when given, multiplies every mean component by
    the common lognormal mean factor.
    """
    x = m.r / net.delta
    xr = net.cell_radius / net.delta
    b = prop.b
    factor = shadowing_mean_factor(shadowing) if shadowing is not None else 1.0
    dl_dl = factor * isr_dl_dl(x, b, ctrl)
    ul_dl = factor * isr_ul_dl(x, b, prop.k, xr, prop.p_star_over_p, ctrl, net.delta)
    exp_ul = 2.0 * b * (1.0 - prop.k)
    ul_ul = factor * a1(b, prop.k, xr, ctrl) * x**exp_ul
    dl_ul = factor * a2(b, prop.k, 1.0 / prop.p_star_over_p, net.delta) * x**exp_ul
    return IsrBreakdown(
        dl_to_dl=dl_dl,
        ul_to_dl=ul_dl,
        ul_to_ul=ul_ul,
        dl_to_ul=dl_ul,
        total_dl=mix.alpha_d * dl_dl + mix.alpha_u * ul_dl,
        total_ul=mix.alpha_u * ul_ul + mix.alpha_d * dl_ul,
    )


@dataclass(frozen=True)
class SinrParams:
    """Noise-and-load coefficients of the SINR maps, plus the two uplink
    interference coefficients so the closed-form uplink map needs no
    series evaluation.

    y0 is the downlink noise-to-power ratio P_N delta^{2b} / P; y0_prime
    the uplink one P_N delta^{2b(1-k)} / P*; eta the average activity of
    interfering cells.
    """

    y0: float
    y0_prime: float
    eta: float = 1.0
    a1_value: float = None
    a2_value: float = None

    def __post_init__(self):
        if self.y0 < 0 or self.y0_prime < 0:
            raise ValueError("noise ratios must be non-negative")
        if not 0 <= self.eta <= 1:
            raise ValueError(f"load must lie in [0, 1], got {self.eta}")

    @classmethod
    def from_model(cls, net, prop, ctrl=None):
        b = prop.b
        xr = net.cell_radius / net.delta
        return cls(
            y0=prop.p_noise_mw * net.delta ** (2.0 * b) / prop.p_dl_mw,
            y0_prime=prop.p_noise_mw * net.delta ** (2.0 * b * (1.0 - prop.k)) / prop.p_star_mw,
            eta=net.load_eta,
            a1_value=a1(b, prop.k, xr, ctrl),
            a2_value=a2(b, prop.k, 1.0 / prop.p_star_over_p, net.delta),
        )


def downlink_inverse_sinr(x, net, prop, mix, params=None, ctrl=None):
    """The downlink noise-plus-interference over signal map d(x).

    d(x) = eta (alpha_d * cell_term(x) + alpha_u * mobile_term(x))
    + y0 x^{2b}; the downlink SINR at radius x is 1 / d(x).  Strictly
    increasing in x, d(0) = 0.

    The mobile term is evaluated at min(x, 0.9 (1 - R/delta)): past
    that radius its mean diverges (overlapping interferer disks) while
    its magnitude is still negligible against the cell term for any
    realistic power ratio, so freezing it keeps the map finite, strictly
    increasing and invertible on the whole cell.
    """
    if params is None:
        params = SinrParams.from_model(net, prop, ctrl)
    b = prop.b
    xr = net.cell_radius / net.delta
    total = mix.alpha_d * isr_dl_dl(x, b, ctrl)
    if mix.alpha_u > 0:
        x_cross = min(x, _CROSS_TERM_CLAMP * (1.0 - xr))
        total += mix.alpha_u * isr_ul_dl(x_cross, b, prop.k, xr, prop.p_star_over_p, ctrl, net.delta)
    return params.eta * total + params.y0 * x ** (2.0 * b)


def uplink_inverse_sinr(x, net, prop, mix, params=None, ctrl=None):
    """The uplink noise-plus-interference over signal map u(x).

    u(x) = (eta (alpha_u a1 + alpha_d a2) + y0_prime) x^{2b(1-k)}; the
    uplink SINR at radius x is 1 / u(x).  For k = 1 the power control
    removes all x dependence and u is constant.
    """
    if params is None:
        params = SinrParams.from_model(net, prop, ctrl)
    coeff = params.eta * (mix.alpha_u * params.a1_value + mix.alpha_d * params.a2_value)
    return (coeff + params.y0_prime) * x ** (2.0 * prop.b * (1.0 - prop.k))


def sinr_dl(x, net, prop, mix, params=None, ctrl=None):
    """Downlink SINR at normalized radius x; inf when both interference
    and noise vanish there (x = 0, or eta = 0 with zero noise)."""
    d = downlink_inverse_sinr(x, net, prop, mix, params, ctrl)
    return math.inf if d == 0 else 1.0 / d


def sinr_ul(x, net, prop, mix, params=None, ctrl=None):
    """Uplink SINR at normalized radius x; inf when interference and
    noise both vanish."""
    u = uplink_inverse_sinr(x, net, prop, mix, params, ctrl)
    return math.inf if u == 0 else 1.0 / u


def inv_u(y, b, k, mix, params):
    """Radius x at which the uplink map takes the value y.

    Closed form: x = (y / (eta (alpha_u a1 + alpha_d a2) + y0_prime))
    ^ {1 / (2b(1-k))}.  ``params`` must carry a1_value and a2_value
    (see :meth:`SinrParams.from_model`).
    """
    if y <= 0:
        raise ValueError(f"map value must be positive, got {y}")
    if k == 1:
        raise ValueError("k = 1: power control removes the radius dependence, map not invertible")
    coeff = params.eta * (mix.alpha_u * params.a1_value + mix.alpha_d * params.a2_value)
    coeff += params.y0_prime
    if coeff == 0:
        raise ValueError("zero interference and noise: map is identically zero")
    return (y / coeff) ** (1.0 / (2.0 * b * (1.0 - k)))


def _series_coefficients(net, prop, mix, params, ctrl):
    """Leading and next-order coefficients f, c1 of
    d(x) = f x^{2b} (1 + c1 x^2 + ...)."""
    b = prop.b
    xr = net.cell_radius / net.delta
    r_fac = prop.p_star_over_p * (net.cell_radius) ** (2.0 * b * prop.k)
    f = 6.0 * params.eta * (
        mix.alpha_d * omega(b) + mix.alpha_u * r_fac * beta_h(0, b, prop.k, xr, ctrl)
    ) + params.y0
    c1f = 6.0 * params.eta * (
        mix.alpha_d * b * b * omega(b + 1.0)
        + mix.alpha_u * r_fac * beta_h(1, b, prop.k, xr, ctrl)
    )
    return f, c1f / f


def inv_d(y, net, prop, mix, params=None, ctrl=None, method="exact"):
    """Radius x at which the downlink map takes the value y.

    method="exact" solves d(x) = y on (0, x_edge] by Brent's method
    (scipy.optimize.brentq) to 1e-15 x_edge and is the reference.
    method="series" inverts the two-term truncation
    d ~ f x^{2b} (1 + c1 x^2): with V = (y/f)^{1/(2b)},

        x = V / sqrt(1/2 + sqrt(1/4 + (c1/b) V^2)),

    which is cheap, accurate at small radius, and degrades to a few
    percent toward mid-cell (quantified in the test suite).
    """
    if y <= 0:
        raise ValueError(f"map value must be positive, got {y}")
    if params is None:
        params = SinrParams.from_model(net, prop, ctrl)
    if method == "series":
        f, c1 = _series_coefficients(net, prop, mix, params, ctrl)
        if f == 0:
            raise ValueError("zero interference and noise: map is identically zero")
        v = (y / f) ** (1.0 / (2.0 * prop.b))
        return v / math.sqrt(0.5 + math.sqrt(0.25 + (c1 / prop.b) * v * v))
    if method != "exact":
        raise ValueError(f"method must be 'exact' or 'series', got {method!r}")
    x_hi = net.x_edge
    d_hi = downlink_inverse_sinr(x_hi, net, prop, mix, params, ctrl)
    if y > d_hi:
        raise ValueError(f"value {y} exceeds the map's maximum {d_hi} at the cell edge")
    if y == d_hi:
        return x_hi
    # imported here: scipy.optimize costs about 46 MB and 0.4 s to load,
    # which the paths that never invert this map should not pay
    from scipy.optimize import brentq

    return brentq(
        lambda x: downlink_inverse_sinr(x, net, prop, mix, params, ctrl) - y,
        0.0, x_hi, xtol=1e-15 * x_hi, rtol=4.0 * np.finfo(float).eps,
    )


def _taylor_coefficients(coefficient, x_max, ctrl):
    """Coefficients c_0, c_1, ... of sum_h c_h x^{2h}, cut where
    :func:`sum_series` accepts the series at x = x_max.  The terms are
    positive, so the cut holds at every smaller x too."""
    coeffs = []

    def terms():
        h = 0
        while True:
            coeffs.append(coefficient(h))
            yield coeffs[-1] * x_max ** (2 * h)
            h += 1

    sum_series(terms(), ctrl)
    return np.array(coeffs)


class _PatternMaps:
    """The downlink maps d_p(x, theta) of the ring-1 direction patterns.

    With the ring-1 cells in pattern p and the user at x e^{i theta},

        d_p = eta [sum over the downlink sites s of p of
                   (x / |s - x e^{i theta}|)^{2b}
                   + alpha_d F(x) + alpha_u mobile_term(x)] + y0 x^{2b},

    where F is the :func:`isr_dl_dl` series with omega(b+h) replaced by
    omega(b+h) - 1: ring 1 adds exactly 1 to every omega, and the rest
    converges for x < sqrt(3).  The mobile term is the clamped one of
    :func:`downlink_inverse_sinr`.  Every ring-1 term increases with x
    because |s| >= sqrt(3) x on the cell, so every d_p is increasing.

    One row per (angle node, pattern) pair: ``cosines`` holds
    cos(angle of site j - theta), ``patterns`` the 0/1 downlink
    indicators, ``weights`` alpha_d^n alpha_u^(6-n) over the number of
    angle nodes, and ``edge`` the maps and their slopes at the cell edge.
    """

    def __init__(self, net, prop, mix, params, ctrl):
        b = prop.b
        self.b = b
        self.eta = params.eta
        self.x_edge = net.x_edge
        self.x_clamp = min(self.x_edge, _CROSS_TERM_CLAMP * (1.0 - self.x_edge))
        far = self.eta * mix.alpha_d * _taylor_coefficients(
            lambda h: 6.0 * math.exp(2.0 * (math.lgamma(b + h) - math.lgamma(b) - math.lgamma(h + 1.0)))
            * (omega(b + h) - 1.0),
            self.x_edge, ctrl,
        )
        far[0] += params.y0
        mobile = self.eta * mix.alpha_u * 6.0 * prop.p_star_over_p * net.cell_radius ** (2.0 * b * prop.k) * (
            _taylor_coefficients(lambda h: beta_h(h, b, prop.k, self.x_edge, ctrl), self.x_clamp, ctrl))
        # columns: the coefficients of P and of P', in powers of x^2
        self.far, self.mobile = (
            np.stack([c, np.append(np.polynomial.polynomial.polyder(c), 0.0)], axis=1) for c in (far, mobile)
        )

        theta = (np.arange(_SECTOR_ANGLES) + 0.5) * (math.pi / 6.0 / _SECTOR_ANGLES)
        self.cosines = np.repeat(np.cos(_RING1_ANGLES[None, :] - theta[:, None]), 64, axis=0)
        self.patterns = np.tile(_RING1_PATTERNS, (_SECTOR_ANGLES, 1))
        n_dl = self.patterns.sum(axis=1)
        self.weights = mix.alpha_d**n_dl * mix.alpha_u ** (6.0 - n_dl) / _SECTOR_ANGLES
        self.edge = self(np.full(self.weights.size, self.x_edge), self.cosines, self.patterns)

    def _power_series(self, x, pair):
        # x^{2b} P(x^2) and its slope x^{2b-1} (2b P + 2 x^2 P')
        b = self.b
        u = x * x
        p, dp = (np.vander(u, pair.shape[0], increasing=True) @ pair).T
        xb = x ** (2.0 * b)
        return xb * p, xb / x * (2.0 * b * p + 2.0 * u * dp)

    def __call__(self, x, cosines, patterns):
        """d_p and its slope in x at radii x of shape (n,), for the rows
        ``cosines`` and ``patterns`` of shape (n, 6)."""
        b = self.b
        xx = x[:, None]
        q = 1.0 - 2.0 * xx * cosines + xx * xx
        ring1 = (xx * xx / q) ** b * patterns
        ring1_slope = 2.0 * b * ring1 * (1.0 - xx * cosines) / (xx * q)
        far_value, far_slope = self._power_series(x, self.far)
        mobile_value, mobile_slope = self._power_series(np.minimum(x, self.x_clamp), self.mobile)
        value = self.eta * ring1.sum(axis=1) + far_value + mobile_value
        slope = (self.eta * ring1_slope.sum(axis=1) + far_slope
                 + np.where(x < self.x_clamp, mobile_slope, 0.0))
        return value, slope


@lru_cache(maxsize=32)
def _pattern_maps(net, prop, mix, params, ctrl):
    # the maps depend on the model but not on the threshold
    return _PatternMaps(net, prop, mix, params, ctrl)


def _pattern_averaged_coverage(y, maps):
    """Downlink coverage averaged over the user angle and the 64
    direction patterns of the ring-1 cells; see :func:`coverage_macro`."""
    x_edge = maps.x_edge
    x_gamma = np.full(maps.weights.size, x_edge)
    d, slope = maps.edge
    todo = d > y
    x, d, slope = x_gamma[todo], d[todo], slope[todo]
    cosines, patterns = maps.cosines[todo], maps.patterns[todo]
    # Newton on log d_p against log x, where every term is close to a
    # power law, inside the bracket [lo, hi] around the single crossing.
    # As in Numerical Recipes' rtsafe, a step longer than the tolerance
    # bisects instead where Newton would leave the bracket or would not
    # halve the step before last.
    tol = 1e-10 * x_edge
    lo = np.zeros(x.size)
    hi = x.copy()
    last = before_last = hi - lo
    while x.size:
        above = d >= y
        hi = np.where(above, x, hi)
        lo = np.where(above, lo, x)
        x_next = x * (y / d) ** (d / (x * slope))
        step = np.abs(x_next - x)
        newton = (step <= tol) | ((lo < x_next) & (x_next <= hi) & (step <= 0.5 * before_last))
        x_next = np.where(newton, x_next, 0.5 * (lo + hi))
        last, before_last = np.abs(x_next - x), last
        x = x_next
        if np.max(last) <= tol:
            break
        d, slope = maps(x, cosines, patterns)
    x_gamma[todo] = x
    return float(np.sum(maps.weights * (x_gamma / x_edge) ** 2))


def coverage_macro(gamma_db, direction, net, prop, mix, params=None, ctrl=None):
    """Probability that the SINR of a uniformly placed user exceeds the
    threshold ``gamma_db``.

    Users are uniform in the serving disk, so on a ray at angle theta a
    user is covered out to the radius x_gamma where the SINR map
    crosses the threshold, and the coverage is the mean of
    (min(x_gamma, x_edge) / x_edge)^2.

    Downlink with 0 < alpha_d < 1: the mean runs over theta, by 16
    midpoint nodes on the symmetry sector [0, pi/6], and over the 64
    direction patterns p of the six ring-1 cells, pattern p weighted
    alpha_d^n alpha_u^(6-n) when n of its cells transmit downlink.
    x_gamma(theta, p) is where the pattern's map d_p crosses 1/gamma;
    d_p sums the downlink ring-1 cells of p at the user's position and
    the mean-field series for the rest of the lattice (see the module
    notes).  Every d_p increases with x, so the crossing is unique; a
    bracketed Newton iteration finds it to 1e-10 x_edge.

    Downlink with alpha_d in {0, 1}: a single pattern, and x_gamma is
    where the angle-averaged map :func:`downlink_inverse_sinr` crosses
    1/gamma, found by Brent's method (:func:`inv_d`).

    Uplink: mean-field, x_gamma from the closed-form inverse
    :func:`inv_u`.  For k = 1 the uplink SINR is radius-free and
    coverage is a step function.
    """
    direction = check_direction(direction)
    if params is None:
        params = SinrParams.from_model(net, prop, ctrl)
    gamma = 10.0 ** (gamma_db / 10.0)
    y = 1.0 / gamma
    x_edge = net.x_edge

    if direction == "dl":
        if 0.0 < mix.alpha_d < 1.0:
            return _pattern_averaged_coverage(y, _pattern_maps(net, prop, mix, params, ctrl))
        if downlink_inverse_sinr(x_edge, net, prop, mix, params, ctrl) <= y:
            return 1.0
        x_gamma = inv_d(y, net, prop, mix, params, ctrl)
        return (x_gamma / x_edge) ** 2
    if prop.k == 1:
        return 1.0 if uplink_inverse_sinr(x_edge, net, prop, mix, params, ctrl) <= y else 0.0
    if uplink_inverse_sinr(x_edge, net, prop, mix, params, ctrl) <= y:
        return 1.0
    x_gamma = inv_u(y, prop.b, prop.k, mix, params)
    return (min(x_gamma, x_edge) / x_edge) ** 2
