"""Small-cell tier: Poisson deployment sampling, Monte Carlo SINR, and
the Laplace-transform route to coverage and spectral efficiency.

Model summary.  Users form a homogeneous PPP; each user's serving cell
sits at an independent Rayleigh-distributed offset (the displacement
construction), every link fades independently exponential with unit
mean, and each interfering pair transmits downlink with probability
alpha_d or uplink (under fractional power control rho^{2bk}) otherwise.
The typical link's serving distance is Rayleigh with an exclusion ball
around the receiver, which is also the paper-of-record approximation
the analytic transforms integrate exactly: the Monte Carlo samples that
same model, so the two routes are comparable to Monte Carlo error.  A
diagnostic nearest-cell association mode quantifies what the
approximation leaves out.

Quadrature design.  Rayleigh-weighted integrals over an offset or
serving distance are mapped through their own CDF onto (0, 1) and
integrated by Gauss-Legendre; the radial PGFL integral is split at the
scale where the interference kernel turns over and its tail is mapped
by s = (x_break/x)^{2b-2}, which makes the integrand asymptotically
constant.  The offset angle takes the midpoint rule on n_theta nodes,
folded onto its distinct cosines (theta and 2 pi - theta share one), so
ceil(n_theta / 2) angles are evaluated.  The kernel returns the
interfered fraction itself, not one minus the retention, so the far
tail of the PGFL keeps its relative accuracy.  It works on a
batch of (v, r) pairs at once: a coverage estimate sends all of its
serving nodes in one call, and the uplink term is built angle-first and
in place, in chunks capped at _CHUNK elements (about 1 MB) so that a
large batch adds no memory.  Each level re-evaluates at doubled x,
offset and serving orders and compares against the configured
tolerance, refining (each Laplace pair on its own) or raising an
integration error with the achieved estimate.  n_theta is never
doubled, so the tolerances bound the x, offset and serving error only:
at FAST_QUAD the angle rule leaves a true coverage error of 1.5e-3 at
0 dB against the 1e-4 asked for.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import rng
from .errors import IntegrationError
from .params import (
    CoverageCurve,
    PropagationParams,
    TddMix,
    check_direction,
    check_gamma_grid,
    dbm_to_mw,
)

__all__ = [
    "SmallCellScenario",
    "QuadratureControl",
    "mc_sinr_ppp",
    "ppp_interference_draws",
    "mc_coverage_ppp",
    "mc_laplace_ppp",
    "laplace_dl",
    "laplace_ul",
    "coverage_ppp_dl",
    "coverage_ppp_ul",
    "ase",
]


@dataclass(frozen=True)
class SmallCellScenario:
    """Parameter bundle for the small-cell tier.

    lam is the deployment density in cells per km^2; window_radius the
    simulation disk radius in km (default 5 / sqrt(lam), wide enough
    that edge effects on the typical link are negligible).  Powers are
    dBm; the environment offset prop.a_db is folded into the effective
    transmit powers, never into the noise.
    """

    lam: float = 10.0
    window_radius: float = None
    p_small_dbm: float = 26.0
    p_small_star_dbm: float = 20.0
    prop: PropagationParams = field(default_factory=PropagationParams)
    mix: TddMix = field(default_factory=TddMix)

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError(f"density must be positive, got {self.lam}")
        if self.window_radius is None:
            object.__setattr__(self, "window_radius", 5.0 / math.sqrt(self.lam))
        if self.window_radius <= 0:
            raise ValueError(f"window radius must be positive, got {self.window_radius}")

    @property
    def p_small_mw(self):
        return dbm_to_mw(self.p_small_dbm - self.prop.a_db)

    @property
    def p_small_star_mw(self):
        return dbm_to_mw(self.p_small_star_dbm - self.prop.a_db)

    @property
    def p_noise_mw(self):
        return self.prop.p_noise_mw

    @property
    def rho_scale(self):
        """Rayleigh scale of serving/offset distances, 1/sqrt(lam pi)."""
        return 1.0 / math.sqrt(self.lam * math.pi)


@dataclass(frozen=True)
class QuadratureControl:
    """Node counts and tolerances for the analytic integrals.

    inner_abs_tol bounds the accepted doubling discrepancy of one
    Laplace-transform value, outer_abs_tol the same for a coverage
    value.  A failing comparison doubles the orders up to
    max_refinements times before raising; max_refinements=0 raises at
    the first failure.  The doubled orders are n_x and n_rho (Laplace)
    and n_serving (coverage); n_theta is never doubled, so the
    tolerances do not bound the error of the angle rule.  ase_rel_tol
    ends the spectral-efficiency panels (see :func:`ase`).
    """

    inner_abs_tol: float = 1e-6
    outer_abs_tol: float = 1e-5
    n_theta: int = 32
    n_rho: int = 64
    n_x: int = 48
    n_serving: int = 48
    ase_rel_tol: float = 1e-4
    max_refinements: int = 2

    def __post_init__(self):
        for name in ("inner_abs_tol", "outer_abs_tol", "ase_rel_tol"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("n_theta", "n_rho", "n_x", "n_serving"):
            if getattr(self, name) < 2:
                raise ValueError(f"{name} must be at least 2")
        if self.max_refinements < 0:
            raise ValueError("max_refinements must be non-negative")


_DEFAULT_QUAD = QuadratureControl()

# elements (8 bytes each) of the uplink-kernel buffer: about 1 MB, so
# the in-place passes over it stay in cache and a large batch adds no
# memory
_CHUNK = 1 << 17

# the spectral-efficiency integral: Gauss nodes per panel, panel width
# in g = ln(1 + gamma), and the most panels before giving up
_ASE_NODES = 16
_ASE_PANEL_WIDTH = 2.0
_ASE_MAX_PANELS = 40


@lru_cache(maxsize=64)
def _gl_unit(n):
    """Gauss-Legendre nodes and weights on (0, 1); weights sum to 1."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    return 0.5 * (nodes + 1.0), 0.5 * weights


@lru_cache(maxsize=64)
def _gl_signed(n):
    """Gauss-Legendre nodes and weights on (-1, 1)."""
    return np.polynomial.legendre.leggauss(n)


@lru_cache(maxsize=64)
def _theta_fold(n_theta):
    """The midpoint angle rule folded onto its distinct cosines: the
    nodes theta and 2 pi - theta share a cosine, so each distinct one
    carries weight 2 / n_theta, and the node at pi (odd n_theta) keeps
    1 / n_theta."""
    half = (n_theta + 1) // 2
    theta = (np.arange(half) + 0.5) * (2.0 * math.pi / n_theta)
    weights = np.full(half, 2.0 / n_theta)
    if n_theta % 2:
        weights[-1] = 1.0 / n_theta
    return np.cos(theta), weights


# ---------------------------------------------------------------------------
# sampling


def _sample(scenario, direction, n_draws, seed, association="rayleigh", serving_r=None):
    """The typical-link Monte Carlo: per draw, the useful power, the
    interference from downlink pairs and from uplink pairs, and the
    serving distance, as four arrays of length n_draws.

    The PPP points are the interfering cells, each with its user at an
    independent Rayleigh offset.  A pair in downlink interferes from the
    cell; a pair in uplink interferes from its user under fractional
    power control on that offset.  The typical user (downlink reception)
    and the typical cell (uplink reception) see the same field; only the
    serving link differs.

    association="rayleigh" is the analyzed model: a Rayleigh serving
    distance, fixed to serving_r when given, with an exclusion ball of
    that radius around the receiver.  association="nearest" places every
    pair explicitly with no exclusion ball: for downlink the receiver
    attaches to the nearest cell of the process, whose own user then
    stops interfering (to a cell at its own-user offset when the window
    holds none); for uplink the typical cell serves its own user at a
    Rayleigh offset and every pair interferes.

    Draw i consumes only stream (seed, i), in this order: the serving
    exponential (Rayleigh, unless serving_r is given), the Poisson count,
    positions, direction flags, offsets, the own-user offset and an
    unused angle (nearest only), the serving fade, then the fades.
    """
    direction = check_direction(direction)
    if n_draws < 1:
        raise ValueError(f"n_draws must be at least 1, got {n_draws}")
    if association not in ("rayleigh", "nearest"):
        raise ValueError(f"association must be 'rayleigh' or 'nearest', got {association!r}")
    lam_pi = scenario.lam * math.pi
    w = scenario.window_radius
    prop = scenario.prop
    two_b = prop.two_b
    bk = prop.b * prop.k
    p_dl, p_ul = scenario.p_small_mw, scenario.p_small_star_mw
    nearest = association == "nearest"
    useful = np.empty(n_draws)
    from_dl = np.empty(n_draws)
    from_ul = np.empty(n_draws)
    distance = np.empty(n_draws)
    for i in range(n_draws):
        gen = rng.stream(seed, i)
        r = serving_r
        if r is None and not nearest:
            r = math.sqrt(gen.standard_exponential() / lam_pi)
        n = gen.poisson(lam_pi * w * w)
        pos = w * np.sqrt(gen.random(n)) * np.exp(2j * math.pi * gen.random(n))
        is_dl = gen.random(n) < scenario.mix.alpha_d
        rho = np.sqrt(gen.standard_exponential(n) / lam_pi)
        phi = 2.0 * math.pi * gen.random(n)
        if nearest:
            rho0 = math.sqrt(gen.standard_exponential() / lam_pi)
            gen.random()  # the own-user angle: no quantity depends on it
        serving_fade = gen.standard_exponential()
        fades = gen.standard_exponential(n)

        cell_dist = np.abs(pos)
        if not nearest:
            keep = cell_dist > r
        else:
            keep = np.ones(n, dtype=bool)
            r = rho0
            if direction == "dl" and n > 0:
                j = int(np.argmin(cell_dist))
                r = float(cell_dist[j])
                keep[j] = False
        on_dl = keep & is_dl
        on_ul = keep & ~is_dl
        user_dist = np.abs(pos[on_ul] + rho[on_ul] * np.exp(1j * phi[on_ul]))
        from_dl[i] = p_dl * float(np.sum(fades[on_dl] * cell_dist[on_dl] ** (-two_b)))
        from_ul[i] = p_ul * float(np.sum(fades[on_ul] * rho[on_ul] ** (2.0 * bk) * user_dist ** (-two_b)))
        if direction == "dl":
            useful[i] = p_dl * serving_fade * r ** (-two_b)
        else:
            useful[i] = p_ul * serving_fade * r ** (-two_b * (1.0 - prop.k))
        distance[i] = r
    return useful, from_dl, from_ul, distance


def ppp_interference_draws(scenario, direction, n_draws, seed):
    """Per-draw decomposition: useful power, interference from downlink
    pairs, from uplink pairs, their sum (the total used in the SINR),
    and the serving distance.  Draw i consumes only stream (seed, i)."""
    useful, from_dl, from_ul, distance = _sample(scenario, direction, n_draws, seed)
    return {
        "useful": useful,
        "from_dl_pairs": from_dl,
        "from_ul_pairs": from_ul,
        "i_total": from_dl + from_ul,
        "serving_distance": distance,
    }


def mc_sinr_ppp(scenario, direction, n_draws, seed, association="rayleigh"):
    """SINR samples of the typical link, one per draw.

    association="rayleigh" (default) samples the analyzed model:
    Rayleigh serving distance with an exclusion ball, interferer
    partners at independent Rayleigh offsets.  association="nearest"
    is the diagnostic with true nearest-cell association and no
    exclusion ball.  Results are bit-identical for fixed
    (scenario, seed) under any chunking or worker count.
    """
    useful, from_dl, from_ul, _ = _sample(scenario, direction, n_draws, seed, association)
    return useful / (from_dl + from_ul + scenario.p_noise_mw)


def mc_coverage_ppp(scenario, direction, gamma_grid_db, n_draws, seed, association="rayleigh"):
    """Empirical SINR CCDF over the threshold grid with 95% binomial
    half-widths.  See mc_sinr_ppp for the draw model and determinism."""
    grid = check_gamma_grid(gamma_grid_db)
    sinr = mc_sinr_ppp(scenario, direction, n_draws, seed, association)
    gamma_lin = 10.0 ** (grid / 10.0)
    value = (sinr[:, None] > gamma_lin[None, :]).mean(axis=0)
    half = 1.96 * np.sqrt(np.maximum(value * (1.0 - value), 0.0) / n_draws)
    return CoverageCurve(grid, value, half)


def mc_laplace_ppp(v, r, scenario, direction, n_draws, seed):
    """Monte Carlo estimate of E[exp(-v I) | serving distance = r] in
    the Rayleigh-serving model; returns (estimate, standard error)."""
    _, from_dl, from_ul, _ = _sample(scenario, direction, n_draws, seed, serving_r=r)
    val = np.exp(-v * (from_dl + from_ul))
    mean = float(val.sum()) / n_draws
    var = max(float((val * val).sum()) / n_draws - mean * mean, 0.0)
    return mean, math.sqrt(var / n_draws)


# ---------------------------------------------------------------------------
# analytic transforms


def _mean_kernel(x, v, scenario, n_theta, n_rho):
    """Rayleigh-offset and angle average of the interfered fraction
    1 - E[exp(-v h P d^{-2b})] = v P d^{-2b} / (1 + v P d^{-2b}) at
    interfering-cell distances x, each paired with the transform
    variable v of the same position (x and v are 1-D arrays of one
    length): downlink pairs interfere from the cell itself, uplink pairs
    from the user displaced off the cell, under power control on the
    same offset.  The fraction is formed directly, never as one minus
    the retention: far out it is about 1e-10, and the subtraction would
    leave only its leading digits.

    The typical user and the typical cell see the same field, so one
    kernel serves both receptions: the offset angle is uniform, and the
    sign of the cross term in the squared distance is immaterial.  With
    the minus sign the kernel peaks at theta = 0, which no midpoint node
    hits; with the plus sign it would peak at theta = pi, a node
    whenever n_theta is odd.

    The uplink term is built theta-first, one chunk of positions at a
    time, in one buffer of at most _CHUNK elements; it is skipped when
    no uplink pair transmits (alpha_u = 0 or zero uplink power), where
    its fraction is exactly 0.
    """
    prop = scenario.prop
    b = prop.b
    mix = scenario.mix
    a_dl = v * scenario.p_small_mw * x ** (-2.0 * b)
    f_dl = a_dl / (1.0 + a_dl)
    p_ul = scenario.p_small_star_mw
    if mix.alpha_u == 0.0 or p_ul == 0.0:
        return mix.alpha_d * f_dl
    u, w = _gl_unit(n_rho)
    rho = np.sqrt(-np.log1p(-u) / (scenario.lam * math.pi))
    rho2 = rho * rho
    pc = rho ** (2.0 * b * prop.k)
    cos_theta, w_theta = _theta_fold(n_theta)
    n_t = w_theta.size
    step = max(1, _CHUNK // (n_t * n_rho))
    buf = np.empty(n_t * min(step, x.size) * n_rho)
    f_ul = np.empty(x.size)
    for lo in range(0, x.size, step):
        xs = x[lo:lo + step, None]
        m = xs.shape[0]
        d2 = buf[: n_t * m * n_rho].reshape(n_t, m, n_rho)
        near = xs * xs + rho2
        cross = 2.0 * xs * rho
        for j, c in enumerate(cos_theta):
            np.multiply(cross, c, out=d2[j])
            np.subtract(near, d2[j], out=d2[j])
        # 1 / (1 + d2^b / (v P* rho^{2bk})), through the logarithm so
        # that every step runs in place
        np.log(d2, out=d2)
        d2 *= b
        d2 -= np.log(v[lo:lo + step, None] * p_ul * pc)
        np.exp(d2, out=d2)
        d2 += 1.0
        np.reciprocal(d2, out=d2)
        f_ul[lo:lo + m] = (w_theta @ d2.reshape(n_t, -1)).reshape(m, n_rho) @ w
    return mix.alpha_d * f_dl + mix.alpha_u * f_ul


def _pgfl_radial(v, r, scenario, n_x, n_theta, n_rho):
    """Per (v, r) pair of the 1-D arrays v and r: the integral over
    (r, infinity) of _mean_kernel(x) x dx, split at the kernel
    turnover scale with an algebraic tail map.  All nodes of all pairs
    go through one kernel call."""
    prop = scenario.prop
    two_b = prop.two_b
    z = two_b - 2.0
    x_break = np.maximum(
        np.maximum(r, 2.0 * scenario.rho_scale),
        np.maximum(
            (v * scenario.p_small_mw) ** (1.0 / two_b),
            (v * scenario.p_small_star_mw * scenario.rho_scale ** (2.0 * prop.b * prop.k))
            ** (1.0 / two_b),
        ),
    )
    mid = np.flatnonzero(x_break > r)
    nodes, weights = _gl_signed(n_x)
    lo, hi = r[mid, None], x_break[mid, None]
    xm = 0.5 * (hi + lo) + 0.5 * (hi - lo) * nodes
    wm = 0.5 * (hi - lo) * weights
    s, ws = _gl_unit(n_x)
    xt = x_break[:, None] * s ** (-1.0 / z)
    jac = (x_break * x_break / z)[:, None] * s ** (-2.0 / z - 1.0)
    frac = _mean_kernel(
        np.concatenate((xm.ravel(), xt.ravel())),
        np.concatenate((np.repeat(v[mid], n_x), np.repeat(v, n_x))),
        scenario, n_theta, n_rho,
    ).reshape(-1, n_x)
    total = (frac[mid.size:] * jac * ws).sum(axis=1)
    total[mid] += (frac[: mid.size] * xm * wm).sum(axis=1)
    return total


def _laplace(v, r, scenario, quad):
    """Laplace transforms at the pairs of the 1-D arrays v and r.  Each
    pair is refined on its own: only the pairs whose doubling check
    fails go on to the next order."""
    if np.any(v < 0) or np.any(r < 0):
        raise ValueError("v and r must be non-negative")
    out = np.ones(v.size)
    todo = np.flatnonzero(v != 0)
    pref = 2.0 * math.pi * scenario.lam
    n_x, n_rho = quad.n_x, quad.n_rho
    coarse = np.exp(-pref * _pgfl_radial(v[todo], r[todo], scenario, n_x, quad.n_theta, n_rho))
    for _ in range(quad.max_refinements + 1):
        fine = np.exp(
            -pref * _pgfl_radial(v[todo], r[todo], scenario, 2 * n_x, quad.n_theta, 2 * n_rho)
        )
        disc = np.abs(fine - coarse)
        done = disc <= quad.inner_abs_tol
        out[todo[done]] = fine[done]
        todo, coarse, disc = todo[~done], fine[~done], disc[~done]
        if todo.size == 0:
            return out
        n_x, n_rho = 2 * n_x, 2 * n_rho
    raise IntegrationError(
        f"Laplace transform not converged to {quad.inner_abs_tol} at v={v[todo[0]]}, r={r[todo[0]]}",
        achieved=float(coarse[0]),
        discrepancy=float(disc[0]),
    )


def laplace_dl(v, r, scenario, quad=None):
    """Laplace transform of the downlink-reception interference
    conditioned on serving distance r, via the Poisson PGFL over
    interfering pairs outside the exclusion ball.  Returns a value in
    (0, 1]; v=0 or vanishing density give exactly 1.
    """
    values = _laplace(np.array([v], float), np.array([r], float), scenario, quad or _DEFAULT_QUAD)
    return float(values[0])


def laplace_ul(v, r, scenario, quad=None):
    """Laplace transform of the interference received at the typical
    cell, conditioned on its user's distance r.  The typical cell sees
    the same interfering field as the typical user, so this is the same
    transform as laplace_dl."""
    return laplace_dl(v, r, scenario, quad)


def _coverage_analytic(gamma_db, scenario, quad, direction):
    prop = scenario.prop
    gamma = 10.0 ** (gamma_db / 10.0)
    if direction == "dl":
        exp_serving = prop.two_b
        p_serv = scenario.p_small_mw
    else:
        exp_serving = prop.two_b * (1.0 - prop.k)
        p_serv = scenario.p_small_star_mw
    if p_serv == 0.0:
        return 0.0  # a silent serving link: the SINR is 0
    lam_pi = scenario.lam * math.pi
    # extra Rayleigh rate flattens the interference-induced decay of the
    # integrand so a fixed Gauss rule resolves large thresholds; the rate
    # is measured from the PGFL integral at a tail reference radius,
    # where the exclusion ball makes it grow quadratically
    r_ref = 3.0 / math.sqrt(lam_pi)
    v_ref = gamma * r_ref**exp_serving / p_serv
    pgfl_ref = _pgfl_radial(
        np.array([v_ref]), np.array([r_ref]), scenario, quad.n_x, quad.n_theta, quad.n_rho
    )
    surplus = 2.0 * float(pgfl_ref[0]) / (r_ref * r_ref)
    beta = lam_pi * (1.0 + surplus)

    def estimate(n_serving):
        t, w = _gl_unit(n_serving)
        r = np.sqrt(-np.log1p(-t) / beta)
        v = gamma * r**exp_serving / p_serv
        val = (
            np.exp(surplus * lam_pi * r * r - gamma * scenario.p_noise_mw * r**exp_serving / p_serv)
            * _laplace(v, r, scenario, quad)
        )
        return float(w @ val) / (1.0 + surplus)

    n = quad.n_serving
    coarse = estimate(n)
    for _ in range(quad.max_refinements + 1):
        fine = estimate(2 * n)
        disc = abs(fine - coarse)
        if disc <= quad.outer_abs_tol:
            return min(fine, 1.0)
        coarse = fine
        n *= 2
    raise IntegrationError(
        f"coverage integral not converged to {quad.outer_abs_tol} at gamma_db={gamma_db}",
        achieved=fine,
        discrepancy=disc,
    )


def coverage_ppp_dl(gamma_db, scenario, quad=None):
    """Coverage probability of the typical downlink: the serving fade is
    exponential, so coverage is the Rayleigh-weighted integral of the
    noise factor times the interference Laplace transform at
    v = gamma r^{2b} / P_small."""
    return _coverage_analytic(gamma_db, scenario, quad or _DEFAULT_QUAD, "dl")


def coverage_ppp_ul(gamma_db, scenario, quad=None):
    """Uplink coverage probability; identical structure with the uplink
    serving power and the power-controlled serving exponent 2b(1-k)."""
    return _coverage_analytic(gamma_db, scenario, quad or _DEFAULT_QUAD, "ul")


def ase(scenario, direction, quad=None, coverage_fn=None):
    """Average spectral efficiency E[log2(1 + SINR)] in bits/s/Hz.

    Integrates the coverage CCDF against d gamma / (1 + gamma) via the
    substitution gamma = e^g - 1, on consecutive Gauss panels in g until
    a panel contributes less than ase_rel_tol of the running total.
    coverage_fn overrides the analytic coverage (it receives a threshold
    in dB); used for cross-checks and synthetic profiles.
    """
    quad = quad or _DEFAULT_QUAD
    direction = check_direction(direction)
    if coverage_fn is None:
        def coverage_fn(gamma_db):
            return _coverage_analytic(gamma_db, scenario, quad, direction)

    nodes, weights = _gl_signed(_ASE_NODES)
    width = _ASE_PANEL_WIDTH
    total = 0.0
    for panel in range(_ASE_MAX_PANELS):
        lo = panel * width
        g = lo + 0.5 * width * (nodes + 1.0)
        w = 0.5 * width * weights
        gamma = np.expm1(g)
        contrib = float(sum(wi * coverage_fn(10.0 * math.log10(gi)) for wi, gi in zip(w, gamma)))
        total += contrib
        if panel >= 1 and contrib <= quad.ase_rel_tol * total:
            return total / math.log(2.0)
    raise IntegrationError(
        f"spectral-efficiency integral still growing after {_ASE_MAX_PANELS} panels",
        achieved=total / math.log(2.0),
    )
