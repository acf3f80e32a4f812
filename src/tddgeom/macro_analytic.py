"""The macro-cell SINR maps built from the ISR series of
:mod:`tddgeom.macro_isr`, their inverses, and the resulting coverage
probability.

All positional quantities are normalized by the lattice spacing:
x = r / delta is the user radius, r_over_delta = R / delta the user-disk
radius.  The maps take the interference averaged over the user's
angular coordinate; position-resolved values live in
:mod:`tddgeom.hexgrid` and the two routes are cross-checked in the test
suite.  Past the convergence radius of the mobile-to-mobile series the
downlink map freezes that one term (see :func:`downlink_inverse_sinr`),
so that coverage, a quantile-type quantity that stays finite, remains
computable across the whole cell.

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
series.

There is one downlink map form, evaluated by rows: each row is one
(user angle, ring-1 pattern) pair, and coverage averages the rows'
crossing radii with their weights.  The mean map
:func:`downlink_inverse_sinr` is its one-row case, with no ring-1 site
resolved; it serves the inverses, and coverage at alpha_d in {0, 1},
where there is a single pattern.  Uplink coverage stays mean-field, in
closed form; its largest gap to the Monte Carlo is 0.010 at
alpha_d = 1/2.  The ISR maps themselves are unchanged.
"""

import math
from functools import lru_cache

import numpy as np

from .macro_isr import _DEFAULT_SERIES, _beta_h_cached, a1, a2
from .params import _check_not_silent, _check_real, check_direction, thresholds
from .specfun import _taylor_table, _taylor_values, omega

__all__ = [
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
# the row index of the mean map, its only row, for every query of it
_MEAN_ROW = np.zeros(1, dtype=int)


@lru_cache(maxsize=32)
def _uplink_coefficient(net, prop, mix, ctrl):
    """c = eta (alpha_u a1 + alpha_d a2) + y0_prime of the uplink map
    u(x) = c x^{2b(1-k)}, with y0_prime = P_N delta^{2b(1-k)} / P* the
    uplink noise ratio."""
    _check_not_silent(prop, "p_star_dbm")
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
    are cut at the cell edge, so x must lie in [0, R/delta].  A silent
    serving power raises ValueError, here and in every map and inverse.
    """
    _check_real("x", x, 0.0, net.x_edge, "[]")
    maps = _downlink_map(net, prop, mix, ctrl, False)
    if x == 0:
        return 0.0
    return float(maps(np.array([float(x)]), _MEAN_ROW)[0][0])


def uplink_inverse_sinr(x, net, prop, mix, ctrl=None):
    """The uplink noise-plus-interference over signal map u(x).

    u(x) = (eta (alpha_u a1 + alpha_d a2) + y0_prime) x^{2b(1-k)}, with
    eta = ``net.load_eta`` and y0_prime = P_N delta^{2b(1-k)} / P*; the
    uplink SINR at radius x is 1 / u(x).  For k = 1 the power control
    removes all x dependence and u is constant.  x lies in [0, R/delta].
    """
    _check_real("x", x, 0.0, net.x_edge, "[]")
    return _uplink_coefficient(net, prop, mix, ctrl) * x ** (2.0 * prop.b * (1.0 - prop.k))


def sinr_dl(x, net, prop, mix, ctrl=None):
    """Downlink SINR at normalized radius x in [0, R/delta]; inf at
    x = 0, where both interference and noise vanish."""
    d = downlink_inverse_sinr(x, net, prop, mix, ctrl)
    return math.inf if d == 0 else 1.0 / d


def sinr_ul(x, net, prop, mix, ctrl=None):
    """Uplink SINR at normalized radius x in [0, R/delta]; inf at x = 0
    when k < 1, where both interference and noise vanish."""
    u = uplink_inverse_sinr(x, net, prop, mix, ctrl)
    return math.inf if u == 0 else 1.0 / u


def inv_u(y, net, prop, mix, ctrl=None):
    """Radius x at which the uplink map :func:`uplink_inverse_sinr`
    takes the value y.

    Closed form: x = (y / (eta (alpha_u a1 + alpha_d a2) + y0_prime))
    ^ {1 / (2b(1-k))}.  As for :func:`inv_d`, y lies in (0, u(R/delta)].
    """
    _check_real("y", y, 0.0, uplink_inverse_sinr(net.x_edge, net, prop, mix, ctrl), "(]")
    if prop.k == 1:
        raise ValueError("k = 1: power control removes the radius dependence, map not invertible")
    return (y / _uplink_coefficient(net, prop, mix, ctrl)) ** (1.0 / (2.0 * prop.b * (1.0 - prop.k)))


def inv_d(y, net, prop, mix, ctrl=None, method="exact"):
    """Radius x at which the downlink map :func:`downlink_inverse_sinr`
    takes the value y.

    method="exact" solves d(x) = y on (0, x_edge] by the Newton
    iteration of :func:`coverage_macro`, on the one row of the mean map,
    to 1e-15 x_edge, and is the reference.  method="series" inverts the
    map's first two Taylor terms d ~ f x^{2b} (1 + c1 x^2): with
    V = (y/f)^{1/(2b)},

        x = V / sqrt(1/2 + sqrt(1/4 + (c1/b) V^2)),

    which is cheap, accurate at small radius, and degrades to a few
    percent toward mid-cell (quantified in the test suite).  Either way
    y lies in (0, d(R/delta)], the map's values on the cell.
    """
    if method not in ("exact", "series"):
        raise ValueError(f"method must be 'exact' or 'series', got {method!r}")
    maps = _downlink_map(net, prop, mix, ctrl, False)
    _check_real("y", y, 0.0, maps.edge[0][0], "(]")
    if method == "series":
        f, c1f = maps.merged[:2].real
        v = (y / f) ** (1.0 / (2.0 * prop.b))
        return v / math.sqrt(0.5 + math.sqrt(0.25 + (c1f / f / prop.b) * v * v))
    return float(_crossing_radii(np.array([float(y)]), maps, _MEAN_ROW, 1e-15 * net.x_edge)[0])


class _DownlinkMap:
    """The downlink map of one model, as Taylor tables in x^2, evaluated
    by rows.  With the ring-1 cells in pattern p and the user at
    x e^{i theta}, row (theta, p) is

        d_p = eta [sum over the downlink sites s of p of
                   (x / |s - x e^{i theta}|)^{2b}
                   + alpha_d F(x) + alpha_u mobile_term(x)] + y0 x^{2b}.

    With ``ring1`` false no site is resolved: ``cosines`` and
    ``patterns`` have shape (0, 1), and the one row, of weight 1, is the
    mean map :func:`downlink_inverse_sinr`, F (table ``far``, plus y0)
    being the :func:`tddgeom.macro_isr.isr_dl_dl` series.  With
    ``ring1`` true the six ring-1 sites are resolved, and F is that
    series with omega(b+h) replaced by omega(b+h) - 1: ring 1 adds
    exactly 1 to every omega, and the rest converges for x < sqrt(3).
    Every ring-1 term increases with x because |s| >= sqrt(3) x on the
    cell, so every d_p is increasing.  Below x_clamp one Horner pass of
    ``merged``, ``far`` merged with ``mobile``, gives the series part;
    from it on, one pass of ``far`` plus the frozen ``mobile_clamped``.

    Row 64 t + p is angle node t with pattern p.  ``cosines`` and
    ``patterns``, of shape (sites, rows), hold per site j cos(angle of
    site j - theta) and the 0/1 downlink indicator; ``weights`` holds
    alpha_d^n alpha_u^(6-n) over the number of angle nodes, and ``edge``
    the rows' values and slopes at the cell edge.
    """

    def __init__(self, net, prop, mix, ctrl, ring1):
        b = prop.b
        self.b = b
        self.eta = net.load_eta
        self.x_edge = net.x_edge
        self.x_clamp = min(self.x_edge, _CROSS_TERM_CLAMP * (1.0 - self.x_edge))
        self.far = _taylor_table(
            lambda h: 6.0 * math.exp(2.0 * (math.lgamma(b + h) - math.lgamma(b) - math.lgamma(h + 1.0)))
            * (omega(b + h) - ring1), self.x_edge, ctrl, self.eta * mix.alpha_d)
        # y0 = P_N delta^{2b} / P, the noise term of d(x) = ... + y0 x^{2b}
        self.far[0] += prop.p_noise_mw * net.delta ** (2.0 * b) / prop.p_dl_mw
        # with no cell in uplink the mobile series is zero and is cut at once
        self.mobile = _taylor_table(
            lambda h: _beta_h_cached(h, b, prop.k, self.x_edge, (ctrl or _DEFAULT_SERIES).rel_tol),
            self.x_clamp if mix.alpha_u > 0 else 0.0, ctrl,
            self.eta * mix.alpha_u * 6.0 * prop.p_star_over_p * net.cell_radius ** (2.0 * b * prop.k))
        # the frozen mobile term, from x_clamp on
        self.mobile_clamped = _taylor_values(np.array([self.x_clamp]), self.mobile, b)[0][0]
        self.merged = np.polynomial.polynomial.polyadd(self.far, self.mobile)
        self.cosines = self.patterns = np.zeros((0, 1))
        self.weights = np.ones(1)
        if ring1:
            theta = (np.arange(_SECTOR_ANGLES) + 0.5) * (math.pi / 6.0 / _SECTOR_ANGLES)
            self.cosines = np.repeat(np.cos(_RING1_ANGLES[:, None] - theta[None, :]), 64, axis=1)
            self.patterns = np.tile(_RING1_PATTERNS.T, (1, _SECTOR_ANGLES))
            n_dl = self.patterns.sum(axis=0)
            self.weights = mix.alpha_d**n_dl * mix.alpha_u ** (6.0 - n_dl) / _SECTOR_ANGLES
        self.edge = self(np.full(self.weights.size, self.x_edge), np.arange(self.weights.size))

    def __call__(self, x, rows):
        """d_p and its slope in x at radii 0 < x <= x_edge of shape (n,),
        for the map rows of index ``rows`` (n,).  Each entry depends on
        its own radius and row alone."""
        below = x < self.x_clamp
        value, slope = np.empty(x.size), np.empty(x.size)
        for part, table, mobile in ((~below, self.far, self.mobile_clamped), (below, self.merged, 0.0)):
            if part.any():
                value[part], slope[part] = _taylor_values(x[part], table, self.b)
                value[part] += mobile
        b = self.b
        xx = x * x
        ring1 = ring1_slope = 0.0
        # site by site, with the site's cosine c and downlink indicator
        # gathered per entry; q = |s - x e^{i theta}|^2.  With no site
        # resolved this adds an exact zero.
        for cosines, patterns in zip(self.cosines, self.patterns):
            xc = x * cosines[rows]
            q = 1.0 - 2.0 * xc + xx
            term = (xx / q) ** b * patterns[rows]
            ring1 += term
            ring1_slope += term * (1.0 - xc) / (x * q)
        value += self.eta * ring1
        slope += (self.eta * 2.0 * b) * ring1_slope
        return value, slope


@lru_cache(maxsize=32)
def _downlink_map(net, prop, mix, ctrl, ring1):
    # the map depends on the model but not on the threshold
    _check_not_silent(prop, "p_dl_dbm")
    return _DownlinkMap(net, prop, mix, ctrl, ring1)


@np.errstate(divide="ignore")  # a slope of 0 gives no Newton step: the bracket bisects
def _crossing_radii(y, maps, rows, tol):
    """Radii where increasing map rows cross values, one unknown per
    entry of ``y``: unknown i is where row ``rows[i]`` of ``maps``
    crosses y[i], x_edge where the row stays at or below y[i].  Each
    unknown iterates until its own last step is at most ``tol``, so its
    radius does not depend on the other unknowns."""
    x_gamma = np.full(y.size, maps.x_edge)
    d, slope = (e[rows] for e in maps.edge)
    todo = np.flatnonzero(d > y)
    y, d, slope, rows = y[todo], d[todo], slope[todo], rows[todo]
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
            todo, y, x, lo, hi, last, before_last, rows = (
                a[going] for a in (todo, y, x, lo, hi, last, before_last, rows))
            if not todo.size:
                break
        d, slope = maps(x, rows)
    return x_gamma


# unknowns per block of a downlink coverage solve: whole thresholds of
# about this many rows, so the memory does not grow with the grid
_BLOCK_ROWS = 4096


def _downlink_coverage(y, maps):
    """Downlink coverage at the map values y, averaged over the rows of
    ``maps``; see :func:`coverage_macro`."""
    n_rows = maps.weights.size
    per_block = max(1, _BLOCK_ROWS // n_rows)
    rows = np.tile(np.arange(n_rows), per_block)
    coverage = np.empty(y.size)
    for start in range(0, y.size, per_block):
        block = y[start:start + per_block]
        x_gamma = _crossing_radii(np.repeat(block, n_rows), maps, rows[:block.size * n_rows], 1e-10 * maps.x_edge)
        share = maps.weights * ((x_gamma / maps.x_edge) ** 2).reshape(block.size, n_rows)
        coverage[start:start + block.size] = share.sum(axis=1)
    return coverage


def coverage_macro(gamma_db, direction, net, prop, mix, ctrl=None):
    """Probability that the SINR of a uniformly placed user exceeds the
    threshold ``gamma_db``, a float or a 1-D grid (see params.thresholds).

    Users are uniform in the serving disk, so on a ray at angle theta a
    user is covered out to the radius x_gamma where the SINR map
    crosses the threshold, and the coverage is the mean of
    (min(x_gamma, x_edge) / x_edge)^2.

    Downlink: x_gamma(row) is where a row of the downlink map crosses
    1/gamma, and coverage is the weighted mean over the rows.  With
    0 < alpha_d < 1 the rows resolve ring 1: they run over theta, by 16
    midpoint nodes on the symmetry sector [0, pi/6], and over the 64
    direction patterns p of the six ring-1 cells, pattern p weighted
    alpha_d^n alpha_u^(6-n) when n of its cells transmit downlink; the
    row's map d_p sums the downlink ring-1 cells of p at the user's
    position and the mean-field series for the rest of the lattice (see
    the module notes).  With alpha_d in {0, 1} there is a single
    pattern, and the map is the one row of weight 1, the
    angle-averaged map :func:`downlink_inverse_sinr`.  Every row
    increases with x, so the crossing is unique; a bracketed Newton
    iteration finds it to 1e-10 x_edge.

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
    map and the uplink coefficient are cached per model, so a curve
    pays for them once.  A silent serving power gives coverage 0.

    Returns
    -------
    float or numpy.ndarray
        A float for a scalar threshold, else one value per threshold.
    """
    direction = check_direction(direction)
    gamma, scalar = thresholds(gamma_db)
    if (prop.p_dl_mw if direction == "dl" else prop.p_star_mw) == 0.0:
        coverage = np.zeros(gamma.size)  # a silent serving link: the SINR is 0
    elif direction == "dl":
        coverage = _downlink_coverage(1.0 / gamma, _downlink_map(net, prop, mix, ctrl, 0.0 < mix.alpha_d < 1.0))
    else:
        # u(x) = c x^{2b(1-k)}: covered everywhere where u(x_edge) <= y,
        # else out to inv_u(y), or nowhere when k = 1
        c = _uplink_coefficient(net, prop, mix, ctrl)
        x_edge = net.x_edge
        power = 2.0 * prop.b * (1.0 - prop.k)
        u_edge = c * x_edge ** power
        coverage = [1.0 if u_edge <= y else 0.0 if prop.k == 1
                    else (min((y / c) ** (1.0 / power), x_edge) / x_edge) ** 2 for y in (1.0 / gamma).tolist()]
    return float(coverage[0]) if scalar else np.asarray(coverage, dtype=float)
