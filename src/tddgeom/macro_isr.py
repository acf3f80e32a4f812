"""Series evaluation of the four macro-cell interference-to-signal
ratios (ISR) of a user at normalized radius x, averaged over the user's
angular coordinate.  The SINR maps and the coverage built from them are
in :mod:`tddgeom.macro_analytic`; position-resolved values live in
:mod:`tddgeom.hexgrid`.

A structural caution on the mobile-to-mobile term: the series behind
:func:`isr_ul_dl` has convergence radius x = 1 - R/delta.  At that
radius the typical user's circle touches the interfering users' disks,
arbitrarily close interferers become possible, and the mean
interference is genuinely infinite.  The component function reports
non-convergence honestly; the SINR map freezes that one term just
inside the radius (see :func:`tddgeom.macro_analytic.downlink_inverse_sinr`).
"""

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import TruncationError
from .params import MAX_X_EDGE, _check_count, _check_not_silent, _check_real
from .specfun import SeriesControl, omega, shadowing_mean_factor, sum_series, sum_series_rows

__all__ = [
    "IsrBreakdown",
    "isr_dl_dl",
    "beta_h",
    "isr_ul_dl",
    "a1",
    "a2",
    "isr_total",
]

_DEFAULT_SERIES = SeriesControl()


def isr_dl_dl(x, b, ctrl=None):
    """Cell-to-cell interference-to-signal ratio at normalized radius x.

    Parameters
    ----------
    x : float
        User distance over lattice spacing, 0 <= x < 1, where the
        series converges.
    b : float
        Half the path-loss exponent, finite and above 1.
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
    _check_real("x", x, 0.0, 1.0, "[)")
    _check_real("b", b, 1.0, math.inf)
    if x == 0:
        return 0.0

    def terms():
        t = omega(b)
        for h in itertools.count():
            yield t
            ratio = ((b + h) / (h + 1.0)) ** 2 * x * x
            t *= ratio * omega(b + h + 1) / omega(b + h)

    return 6.0 * x ** (2.0 * b) * sum_series(terms(), ctrl)


@lru_cache(maxsize=None)
def _beta_h_block(j, b, k, r_over_delta, rel_tol):
    """beta_h's series for h = 8j, ..., 8j + 7, one per row, summed by
    :func:`sum_series_rows` within 6h + 120 terms."""
    h = np.arange(8 * j, 8 * j + 8)
    bk = b * k
    xr2 = r_over_delta * r_over_delta
    # omega(b + n) for all n: exactly 1 from 55 on
    om = np.array([omega(b + n) for n in range(int(55.0 - b) + 2)])
    first = [math.exp(2.0 * (math.lgamma(b + i) - math.lgamma(b) - math.lgamma(i + 1.0)))
             * (omega(b + i) / (bk + 1.0)) for i in h.tolist()]

    def terms(width):
        m = np.arange(width - 1.0)
        om_n = om[np.minimum(h[:, None] + np.arange(width), om.size - 1)]
        ratio = (((b + h)[:, None] + m) / (m + 1.0)) ** 2 * xr2 * (m + bk + 1.0) / (m + bk + 2.0)
        return np.multiply.accumulate(np.column_stack([first, ratio * om_n[:, 1:] / om_n[:, :-1]]), axis=1)

    # the series stop by m = 1.8 h + 30
    return sum_series_rows(terms, 6 * h + 120, rel_tol, 2 * h[-1] + 64)


@lru_cache(maxsize=None)
def _beta_h_cached(h, b, k, r_over_delta, rel_tol):
    # the budget only decides where the series gives up, never the
    # value it converges to, so it is no part of the key
    total, last, converged = _beta_h_block(h // 8, b, k, r_over_delta, rel_tol)[h % 8]
    if not converged:
        raise TruncationError(f"series did not converge within {6 * h + 120} terms (last term {last:.3e}, "
                              f"partial sum {total:.6e})", partial=total, terms=6 * h + 120)
    if not math.isfinite(total):
        raise TruncationError(f"beta_h coefficient {h} exceeds the double-precision range", terms=h)
    return total


def beta_h(h, b, k, r_over_delta, ctrl=None):
    """Coefficient of x^{2h} in the mobile-to-mobile interference series.

    Parameters
    ----------
    h : int
        Series index, an integer h >= 0.
    b, k : float
        Half path-loss exponent (finite, b > 1) and power-control
        fraction (0 <= k <= 1).
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

    At h = 0 it is the :func:`a1` series.  Only ``ctrl.rel_tol`` is
    used; the term budget is 6h + 120, as the terms peak near
    m = h (R/delta) / (1 - R/delta).  Coefficients are summed eight at
    a time, one per row of an array, and cached.  They grow like
    (1 - r_over_delta)^{-2h}, so the series in x needs x < 1 - R/delta.

    Raises
    ------
    TruncationError
        If the series does not converge within its budget, or exceeds
        the double-precision range (from h = 412 on at b = 1.75,
        k = 0.4, r_over_delta = 1/sqrt(3)).
    """
    _check_count("h", h, 0)
    _check_real("b", b, 1.0, math.inf)
    _check_real("k", k, 0.0, 1.0, "[]")
    _check_real("r_over_delta", r_over_delta, 0.0, MAX_X_EDGE, "(]")
    return _beta_h_cached(int(h), float(b), float(k), float(r_over_delta), (ctrl or _DEFAULT_SERIES).rel_tol)


def isr_ul_dl(x, b, k, r_over_delta, p_star_over_p, ctrl=None, delta=1.0):
    """Mobile-to-mobile interference-to-signal ratio at normalized radius x.

    Parameters
    ----------
    x : float
        User distance over lattice spacing, 0 <= x < 1.
    b, k, r_over_delta : float
        As in :func:`beta_h`.
    p_star_over_p : float
        Uplink-to-downlink power ratio P*/P, finite and non-negative.
    ctrl : SeriesControl, optional
    delta : float, optional
        Lattice spacing, finite and positive; enters only through the
        power-control factor R^{2bk} with R = r_over_delta * delta.

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
    _check_real("x", x, 0.0, 1.0, "[)")
    _check_real("b", b, 1.0, math.inf)
    _check_real("k", k, 0.0, 1.0, "[]")
    _check_real("r_over_delta", r_over_delta, 0.0, MAX_X_EDGE, "(]")
    _check_real("p_star_over_p", p_star_over_p, 0.0, math.inf, "[)")
    _check_real("delta", delta, 0.0, math.inf)
    if x == 0:
        return 0.0
    if x >= 1.0 - r_over_delta:
        raise TruncationError(
            f"the mobile-to-mobile series diverges at x = {x} >= 1 - R/delta = {1.0 - r_over_delta}",
            terms=0,
        )
    # beta_h's coefficients, from its cache: the arguments are checked
    key = (float(b), float(k), float(r_over_delta), (ctrl or _DEFAULT_SERIES).rel_tol)
    terms = (_beta_h_cached(h, *key) * x ** (2 * h) for h in itertools.count())
    big_r = r_over_delta * delta
    prefactor = 6.0 * p_star_over_p * x ** (2.0 * b) * big_r ** (2.0 * b * k)
    return prefactor * sum_series(terms, ctrl)


def a1(b, k, r_over_delta, ctrl=None):
    """Mobile-to-cell interference coefficient.

    The uplink ISR caused by interfering mobiles is a1 * x^{2b(1-k)},
    a1 = 6 (R/delta)^{2bk} beta_0.  Its series is the h = 0 case of
    :func:`beta_h`, summed here by its own copy, which acceptance
    criterion 02 checks.  r_over_delta lies in [0, 1/sqrt(3)]; at 0 it
    takes its limit, 6 omega(b) without power control (k = 0), 0 with it.
    """
    _check_real("b", b, 1.0, math.inf)
    _check_real("k", k, 0.0, 1.0, "[]")
    _check_real("r_over_delta", r_over_delta, 0.0, MAX_X_EDGE, "[]")
    if r_over_delta == 0:
        return 6.0 * omega(b) if k == 0 else 0.0
    bk = b * k
    xr2 = r_over_delta * r_over_delta

    def terms():
        t = omega(b) / (bk + 1.0)
        for h in itertools.count():
            yield t
            t *= (
                ((b + h) / (h + 1.0)) ** 2
                * xr2
                * (bk + h + 1.0) / (bk + h + 2.0)
                * omega(b + h + 1.0) / omega(b + h)
            )

    return 6.0 * r_over_delta ** (2.0 * bk) * sum_series(terms(), ctrl)


def a2(b, k, p_over_pstar, delta=1.0):
    """Cell-to-mobile interference coefficient.

    The uplink ISR caused by downlink cells is a2 * x^{2b(1-k)}: the
    full-lattice sum 6 omega(b) delta^{-2b} of cell powers P, divided by
    the power-controlled useful signal P* r^{-2b(1-k)}.  b and k are as
    in :func:`beta_h`, P/P* is finite and non-negative, delta positive.
    """
    _check_real("b", b, 1.0, math.inf)
    _check_real("k", k, 0.0, 1.0, "[]")
    _check_real("p_over_pstar", p_over_pstar, 0.0, math.inf, "[)")
    _check_real("delta", delta, 0.0, math.inf)
    return 6.0 * p_over_pstar * omega(b) * delta ** (-2.0 * b * k)


@dataclass(frozen=True)
class IsrBreakdown:
    """The four interference-to-signal components at one user radius and
    their duplexing-weighted totals; no component is NaN or negative."""

    dl_to_dl: float
    ul_to_dl: float
    ul_to_ul: float
    dl_to_ul: float
    total_dl: float
    total_ul: float

    def __post_init__(self):
        for name in ("dl_to_dl", "ul_to_dl", "ul_to_ul", "dl_to_ul"):
            _check_real(name, getattr(self, name), 0.0, math.inf, "[]")


def isr_total(m, net, prop, mix, shadowing=None, ctrl=None):
    """All four ISR components for a user at ``m``, with totals weighted
    by the duplexing mix: downlink total alpha_d * cell_term + alpha_u *
    mobile_term, uplink total alpha_u * mobile_term + alpha_d *
    cell_term.

    Lognormal shadowing, when given, multiplies every mean component by
    the common lognormal mean factor.  A silent serving power raises
    ValueError, as each ISR is a ratio to one.
    """
    _check_not_silent(prop)
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
