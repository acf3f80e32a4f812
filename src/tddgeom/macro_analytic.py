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
inverts the mean map :func:`downlink_inverse_sinr` by the same iteration.
Uplink coverage stays mean-field, in
closed form; its largest gap to the Monte Carlo is 0.010 at
alpha_d = 1/2.  The ISR maps themselves are unchanged.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import TruncationError
from .params import check_direction, thresholds
from .specfun import SeriesControl, ShadowingSpec, omega, shadowing_mean_factor, sum_series

__all__ = [
    "IsrBreakdown",
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


@lru_cache(maxsize=32)
def _uplink_coefficient(net, prop, mix, ctrl):
    """c = eta (alpha_u a1 + alpha_d a2) + y0_prime of the uplink map
    u(x) = c x^{2b(1-k)}, with y0_prime = P_N delta^{2b(1-k)} / P* the
    uplink noise ratio."""
    b = prop.b
    a1_value = a1(b, prop.k, net.cell_radius / net.delta, ctrl)
    a2_value = a2(b, prop.k, 1.0 / prop.p_star_over_p, net.delta)
    y0_prime = prop.p_noise_mw * net.delta ** (2.0 * b * (1.0 - prop.k)) / prop.p_star_mw
    return net.load_eta * (mix.alpha_u * a1_value + mix.alpha_d * a2_value) + y0_prime


def downlink_inverse_sinr(x, net, prop, mix, ctrl=None):
    """The downlink noise-plus-interference over signal map d(x).

    d(x) = eta (alpha_d * cell_term(x) + alpha_u * mobile_term(x))
    + y0 x^{2b}, with eta = ``net.load_eta`` and y0 = P_N delta^{2b} / P
    the noise-to-power ratio; the downlink SINR at radius x is 1 / d(x).
    Strictly increasing in x, d(0) = 0.

    The mobile term is evaluated at min(x, 0.9 (1 - R/delta)): past
    that radius its mean diverges (overlapping interferer disks) while
    its magnitude is still negligible against the cell term for any
    realistic power ratio, so freezing it keeps the map finite, strictly
    increasing and invertible on the whole cell.  Its Taylor tables
    are cut at the cell edge, so x must lie in [0, R/delta].
    """
    if not 0 <= x <= net.x_edge:
        raise ValueError(f"normalized radius must lie in [0, {net.x_edge}], got {x}")
    if x == 0:
        return 0.0
    return float(_downlink_maps(net, prop, mix, ctrl)(np.array([float(x)]))[0][0])


def uplink_inverse_sinr(x, net, prop, mix, ctrl=None):
    """The uplink noise-plus-interference over signal map u(x).

    u(x) = (eta (alpha_u a1 + alpha_d a2) + y0_prime) x^{2b(1-k)}, with
    eta = ``net.load_eta`` and y0_prime = P_N delta^{2b(1-k)} / P*; the
    uplink SINR at radius x is 1 / u(x).  For k = 1 the power control
    removes all x dependence and u is constant.
    """
    return _uplink_coefficient(net, prop, mix, ctrl) * x ** (2.0 * prop.b * (1.0 - prop.k))


def sinr_dl(x, net, prop, mix, ctrl=None):
    """Downlink SINR at normalized radius x in [0, R/delta]; inf at
    x = 0, where both interference and noise vanish."""
    d = downlink_inverse_sinr(x, net, prop, mix, ctrl)
    return math.inf if d == 0 else 1.0 / d


def sinr_ul(x, net, prop, mix, ctrl=None):
    """Uplink SINR at normalized radius x; inf at x = 0 when k < 1,
    where both interference and noise vanish."""
    u = uplink_inverse_sinr(x, net, prop, mix, ctrl)
    return math.inf if u == 0 else 1.0 / u


def inv_u(y, net, prop, mix, ctrl=None):
    """Radius x at which the uplink map :func:`uplink_inverse_sinr`
    takes the value y.

    Closed form: x = (y / (eta (alpha_u a1 + alpha_d a2) + y0_prime))
    ^ {1 / (2b(1-k))}.
    """
    if y <= 0:
        raise ValueError(f"map value must be positive, got {y}")
    if prop.k == 1:
        raise ValueError("k = 1: power control removes the radius dependence, map not invertible")
    coeff = _uplink_coefficient(net, prop, mix, ctrl)
    if coeff == 0:
        raise ValueError("zero interference and noise: map is identically zero")
    return (y / coeff) ** (1.0 / (2.0 * prop.b * (1.0 - prop.k)))


def inv_d(y, net, prop, mix, ctrl=None, method="exact"):
    """Radius x at which the downlink map :func:`downlink_inverse_sinr`
    takes the value y.

    method="exact" solves d(x) = y on (0, x_edge] by the Newton
    iteration of :func:`coverage_macro` to 1e-15 x_edge and is the
    reference.  method="series" inverts the map's first two Taylor
    terms d ~ f x^{2b} (1 + c1 x^2): with V = (y/f)^{1/(2b)},

        x = V / sqrt(1/2 + sqrt(1/4 + (c1/b) V^2)),

    which is cheap, accurate at small radius, and degrades to a few
    percent toward mid-cell (quantified in the test suite).
    """
    if y <= 0:
        raise ValueError(f"map value must be positive, got {y}")
    if method not in ("exact", "series"):
        raise ValueError(f"method must be 'exact' or 'series', got {method!r}")
    maps = _downlink_maps(net, prop, mix, ctrl)
    if method == "series":
        f, c1f = (maps.mean_far[:2] + maps.mobile[:2]).real
        if f == 0:
            raise ValueError("zero interference and noise: map is identically zero")
        v = (y / f) ** (1.0 / (2.0 * prop.b))
        return v / math.sqrt(0.5 + math.sqrt(0.25 + (c1f / f / prop.b) * v * v))
    edge = maps(np.array([net.x_edge]))
    if y > edge[0][0]:
        raise ValueError(f"value {y} exceeds the map's maximum {edge[0][0]} at the cell edge")
    return float(_crossing_radii(np.array([float(y)]), maps, None, edge, 1e-15 * net.x_edge)[0])


def _taylor_table(coefficient, x_max, ctrl, scale):
    """The coefficients scale * c_h + i d_h, with d_h those of the
    derivative in x^2, of the series sum_h c_h x^{2h} cut where
    :func:`sum_series` accepts it at x = x_max.  The terms are positive,
    so the cut holds at every smaller x too.  One Horner pass in a real
    variable gives the series and its derivative as the real and
    imaginary parts: multiplying by a real number keeps them apart
    exactly."""
    coeffs = []

    def terms():
        h = 0
        while True:
            coeffs.append(coefficient(h))
            yield coeffs[-1] * x_max ** (2 * h)
            h += 1

    sum_series(terms(), ctrl)
    c = scale * np.array(coeffs)
    return c + 1j * np.append(np.polynomial.polynomial.polyder(c), 0.0)


class _DownlinkMaps:
    """The downlink maps of one model, as Taylor tables in x^2.

    Called with radii alone it gives the mean map of
    :func:`downlink_inverse_sinr`, from the tables ``mean_far`` (eta
    alpha_d times the :func:`isr_dl_dl` series, plus y0) and ``mobile``.
    For 0 < alpha_d < 1 its rows resolve ring 1: with the ring-1 cells
    in pattern p and the user at x e^{i theta},

        d_p = eta [sum over the downlink sites s of p of
                   (x / |s - x e^{i theta}|)^{2b}
                   + alpha_d F(x) + alpha_u mobile_term(x)] + y0 x^{2b},

    where F (table ``far``) is the :func:`isr_dl_dl` series with
    omega(b+h) replaced by omega(b+h) - 1: ring 1 adds exactly 1 to
    every omega, and the rest converges for x < sqrt(3).  Every ring-1
    term increases with x because |s| >= sqrt(3) x on the cell, so
    every d_p is increasing.  For alpha_d in {0, 1} the one row, of
    weight 1, is the mean map, and ``cosines`` and ``patterns`` are None.

    Row 64 t + p is angle node t with pattern p.  ``cosines`` and
    ``patterns``, of shape (6, rows), hold per site j cos(angle of site
    j - theta) and the 0/1 downlink indicator; ``weights`` holds
    alpha_d^n alpha_u^(6-n) over the number of angle nodes, and ``edge``
    the maps and their slopes at the cell edge.
    """

    def __init__(self, net, prop, mix, ctrl):
        b = prop.b
        self.b = b
        self.eta = net.load_eta
        self.x_edge = net.x_edge
        self.x_clamp = min(self.x_edge, _CROSS_TERM_CLAMP * (1.0 - self.x_edge))

        def far(ring1):
            table = _taylor_table(
                lambda h: 6.0 * math.exp(2.0 * (math.lgamma(b + h) - math.lgamma(b) - math.lgamma(h + 1.0)))
                * (omega(b + h) - ring1), self.x_edge, ctrl, self.eta * mix.alpha_d)
            # y0 = P_N delta^{2b} / P, the noise term of d(x) = ... + y0 x^{2b}
            table[0] += prop.p_noise_mw * net.delta ** (2.0 * b) / prop.p_dl_mw
            return table
        # with no cell in uplink the mobile series is zero and is cut at once
        self.mobile = _taylor_table(
            lambda h: beta_h(h, b, prop.k, self.x_edge, ctrl), self.x_clamp if mix.alpha_u > 0 else 0.0, ctrl,
            self.eta * mix.alpha_u * 6.0 * prop.p_star_over_p * net.cell_radius ** (2.0 * b * prop.k))
        # the frozen mobile term, from x_clamp on
        self.mobile_clamped = self._power_series(np.array([self.x_clamp]), self.mobile)[0][0]
        self.mean_far = self.far = far(0.0)
        self.cosines = self.patterns = None
        self.weights = np.ones(1)
        if 0.0 < mix.alpha_d < 1.0:
            self.far = far(1.0)
            theta = (np.arange(_SECTOR_ANGLES) + 0.5) * (math.pi / 6.0 / _SECTOR_ANGLES)
            self.cosines = np.repeat(np.cos(_RING1_ANGLES[:, None] - theta[None, :]), 64, axis=1)
            self.patterns = np.tile(_RING1_PATTERNS.T, (1, _SECTOR_ANGLES))
            n_dl = self.patterns.sum(axis=0)
            self.weights = mix.alpha_d**n_dl * mix.alpha_u ** (6.0 - n_dl) / _SECTOR_ANGLES
        rows = None if self.patterns is None else np.arange(self.weights.size)
        self.edge = self(np.full(self.weights.size, self.x_edge), rows)

    def _power_series(self, x, table):
        # x^{2b} P(x^2) and its slope x^{2b-1} (2b P + 2 x^2 P'), P + i P'
        # by Horner's rule
        b = self.b
        u = x * x
        u_complex = u.astype(complex)
        z = np.full(x.size, table[-1])
        for c in table[-2::-1].tolist():
            z *= u_complex
            z += c
        p, dp = z.real, z.imag
        xb = x ** (2.0 * b)
        return xb * p, xb / x * (2.0 * b * p + 2.0 * u * dp)

    def __call__(self, x, rows=None):
        """d_p and its slope in x at radii 0 < x <= x_edge of shape (n,),
        for the map rows of index ``rows`` (n,); the mean map d and its
        slope without rows, as on a one-row map.  Each entry depends on
        its own radius and row alone."""
        value, slope = self._power_series(x, self.mean_far if rows is None else self.far)
        if rows is not None:
            b = self.b
            xx = x * x
            ring1 = np.zeros(x.size)
            ring1_slope = np.zeros(x.size)
            # site by site, with the site's cosine c and downlink
            # indicator gathered per entry; q = |s - x e^{i theta}|^2
            for cosines, patterns in zip(self.cosines, self.patterns):
                xc = x * cosines[rows]
                q = 1.0 - 2.0 * xc + xx
                term = (xx / q) ** b * patterns[rows]
                ring1 += term
                ring1_slope += term * (1.0 - xc) / (x * q)
            value += self.eta * ring1
            slope += (self.eta * 2.0 * b) * ring1_slope
        below = x < self.x_clamp
        mobile_value = np.full(x.size, self.mobile_clamped)
        mobile_slope = np.zeros(x.size)
        mobile_value[below], mobile_slope[below] = self._power_series(x[below], self.mobile)
        return value + mobile_value, slope + mobile_slope


@lru_cache(maxsize=32)
def _downlink_maps(net, prop, mix, ctrl):
    # the maps depend on the model but not on the threshold
    return _DownlinkMaps(net, prop, mix, ctrl)


def _crossing_radii(y, maps, rows, edge, tol):
    """Radii where increasing maps cross values, one unknown per entry
    of ``y``: unknown i is where map row ``rows[i]`` (the mean map where
    ``rows`` is None) crosses y[i], x_edge where the row stays at or
    below y[i].  ``edge`` holds each unknown's map value and slope at
    x_edge.  Each unknown iterates until its own last step is at most
    ``tol``, so its radius does not depend on the other unknowns."""
    x_gamma = np.full(y.size, maps.x_edge)
    d, slope = edge
    todo = np.flatnonzero(d > y)
    y, d, slope = y[todo], d[todo], slope[todo]
    if rows is not None:
        rows = rows[todo]
    x = x_gamma[todo]
    # Newton on log d_p against log x, where every term is close to a
    # power law, inside the bracket [lo, hi] around the single crossing.
    # As in Numerical Recipes' rtsafe, a step longer than the tolerance
    # bisects instead where Newton would leave the bracket or would not
    # halve the step before last.
    lo = np.zeros(x.size)
    hi = x.copy()
    last = before_last = hi - lo
    while todo.size:
        above = d >= y
        hi = np.where(above, x, hi)
        lo = np.where(above, lo, x)
        x_next = x * (y / d) ** (d / (x * slope))
        step = np.abs(x_next - x)
        newton = (step <= tol) | ((lo < x_next) & (x_next <= hi) & (step <= 0.5 * before_last))
        x_next = np.where(newton, x_next, 0.5 * (lo + hi))
        last, before_last = np.abs(x_next - x), last
        x = x_next
        done = last <= tol
        if done.any():
            x_gamma[todo[done]] = x[done]
            going = ~done
            todo, y, x, lo, hi, last, before_last = (
                a[going] for a in (todo, y, x, lo, hi, last, before_last))
            if rows is not None:
                rows = rows[going]
            if not todo.size:
                break
        d, slope = maps(x, rows)
    return x_gamma


# unknowns per block of a downlink coverage solve: whole thresholds of
# about this many rows, so the memory does not grow with the grid
_BLOCK_ROWS = 4096


def _downlink_coverage(y, maps):
    """Downlink coverage at the map values y, averaged over the rows of
    ``maps``, ring-1 patterns and user angles or the one mean-map row;
    see :func:`coverage_macro`."""
    n_rows = maps.weights.size
    per_block = max(1, _BLOCK_ROWS // n_rows)
    # a one-row map is the mean map, which takes no row indices
    rows = None if maps.patterns is None else np.tile(np.arange(n_rows), per_block)
    edge = [np.tile(e, per_block) for e in maps.edge]
    coverage = np.empty(y.size)
    for start in range(0, y.size, per_block):
        block = y[start:start + per_block]
        n = block.size * n_rows
        x_gamma = _crossing_radii(np.repeat(block, n_rows), maps, None if rows is None else rows[:n],
                                  [e[:n] for e in edge], 1e-10 * maps.x_edge)
        share = maps.weights * ((x_gamma / maps.x_edge) ** 2).reshape(block.size, n_rows)
        coverage[start:start + block.size] = share.sum(axis=1)
    return coverage


def _uplink_coverage(y, net, prop, mix, ctrl):
    """Uplink coverage at the map value y, by the closed-form inverse
    :func:`inv_u`; see :func:`coverage_macro`."""
    x_edge = net.x_edge
    if uplink_inverse_sinr(x_edge, net, prop, mix, ctrl) <= y:
        return 1.0
    if prop.k == 1:
        return 0.0
    return (min(inv_u(y, net, prop, mix, ctrl), x_edge) / x_edge) ** 2


def coverage_macro(gamma_db, direction, net, prop, mix, ctrl=None):
    """Probability that the SINR of a uniformly placed user exceeds the
    threshold ``gamma_db``, a float or a 1-D grid (see params.thresholds).

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
    1/gamma, found by the same iteration to the same tolerance.

    A downlink grid is solved as one set of (threshold, row) unknowns,
    in blocks of whole thresholds of about 4,096 rows, so the memory
    stays that of one block for any grid length.  Each unknown iterates
    until its own last step is within the tolerance, so a threshold
    gets the same value, to the bit, in any grid and in any order.

    Uplink: mean-field, x_gamma from the closed-form inverse
    :func:`inv_u`, one threshold at a time.  For k = 1 the uplink
    SINR is radius-free and coverage is a step function.

    Every map is built from ``net``, ``prop`` and ``mix`` alone, the load
    factor eta included; ``ctrl`` truncates its series.  The downlink
    maps and the uplink coefficient are cached per model, so a curve
    pays for them once.

    Returns
    -------
    float or numpy.ndarray
        A float for a scalar threshold, else one value per threshold.
    """
    direction = check_direction(direction)
    gamma, scalar = thresholds(gamma_db)
    if direction == "dl":
        coverage = _downlink_coverage(1.0 / gamma, _downlink_maps(net, prop, mix, ctrl))
    else:
        coverage = [_uplink_coverage(v, net, prop, mix, ctrl) for v in (1.0 / gamma).tolist()]
    return float(coverage[0]) if scalar else np.asarray(coverage, dtype=float)
