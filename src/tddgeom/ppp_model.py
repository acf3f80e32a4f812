"""Small-cell tier: Poisson deployment sampling, Monte Carlo SINR, and
the Laplace-transform route to coverage.  The spectral efficiency built
on the same transform is in :mod:`tddgeom.ppp_ase`.

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

Quadrature design.  Every rule in x, offset and serving distance is a
nested Gauss-Kronrod pair G(n) in K(2n+1) on (-1, 1): the 2n + 1
Kronrod nodes contain the n Gauss nodes, so one evaluation on the
Kronrod nodes gives both estimates, K (exact to degree 3n + 1) and
G (to 2n - 1).  A level accepts |K - G| <= tol and returns K; otherwise
it doubles the coarse orders n_x and n_rho (a Laplace value, each pair
on its own) or n_serving (a coverage value) and evaluates the next pair,
up to max_refinements times, then raises an integration error with the
achieved estimate.  The rules come from :mod:`tddgeom.quadrules`, built
on first use and cached per order.

The serving distance and each pair's offset are Rayleigh, and both
take one rule (:func:`_rayleigh_rule`): the CDF u = 1 - exp(-lam pi d^2),
graded by u = t^2 (3 - 2t).  On u alone the offset integrand has a
logarithmic singularity at rho -> infinity: with every pair in uplink
(k = 0.4, lam = 10) at (v, r) = (1.05e9, 0.52), the G(32) offset rule
errs by 1.1e-4 on u and by 3.7e-7 on the graded map.  At r -> 0 a
coverage integrand falls steeply at high thresholds and low densities,
and a spectral-efficiency row grows like ln(1/r).  The kernel returns
both offset estimates; the G estimate pairs the Gauss rules in x and
offset, the K estimate the Kronrod rules.  The radial PGFL integral is
split at the scale where the interference kernel turns over and its
tail is mapped by s = (x_break/x)^{2b-2}, which makes the integrand
asymptotically constant.

The offset angle takes the midpoint rule on n_theta nodes, folded onto
its distinct cosines (theta and 2 pi - theta share one), so
ceil(n_theta / 2) angles are evaluated.  n_theta is never doubled and
both estimates share it, so the tolerances bound the x, offset,
serving and spectral-efficiency error only: at FAST_QUAD the angle rule
leaves a true coverage error of 1.5e-3 at 0 dB against the 1e-4 asked
for.

The spectral efficiency is one double integral over the serving
distance and g = ln(1 + v S(r)), not an integral of coverage values; its
rules are in :mod:`tddgeom.ppp_ase`.

The kernel returns the interfered fraction itself, not one minus the
retention, so the far tail of the PGFL keeps its relative accuracy.  It
works on a batch of (v, r) pairs at once: a coverage estimate sends all
of its serving nodes in one call, and the uplink term is built
angle-first and in place, in chunks capped at _CHUNK elements (about
1 MB) so that a large batch adds no memory.  Its weighted sums are
einsum reductions, not BLAS products, so a pair's value is the same to
the bit in any batch.
"""

import math
import sys
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import rng
from .errors import IntegrationError
from .hexgrid import _dist2_polar
from .params import (
    CoverageCurve,
    PropagationParams,
    TddMix,
    _check_count,
    _check_positive,
    _check_real,
    check_direction,
    check_gamma_grid,
    dbm_to_mw,
)
from .quadrules import gauss_kronrod, gauss_kronrod_unit

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
]


@dataclass(frozen=True)
class SmallCellScenario:
    """Parameter bundle for the small-cell tier.

    lam is the deployment density in cells per km^2; window_radius the
    simulation disk radius in km, default 5 / sqrt(lam).  The Monte Carlo
    omits the interference beyond it, which at lam = 10, alpha_d = 1/2
    raises DL coverage at 0 dB by 0.0111 (7 standard errors at 100k
    draws; 0.0030 with a 3 km window).  Both must be finite and positive,
    and lam such that (10 rho_scale)^{2b} is a finite float and
    (rho_scale / 10)^{2b} a normal one, as the analytic rules raise
    distances of a few rho_scale to that power.
    Powers are dBm; the environment offset prop.a_db is folded into the
    effective transmit powers only.
    """

    lam: float = 10.0
    window_radius: float = None
    p_small_dbm: float = 26.0
    p_small_star_dbm: float = 20.0
    prop: PropagationParams = field(default_factory=PropagationParams)
    mix: TddMix = field(default_factory=TddMix)

    def __post_init__(self):
        for name in ("p_small_dbm", "p_small_star_dbm"):
            _check_real(name, getattr(self, name))
        _check_positive("lam", self.lam)
        try:
            (10.0 * self.rho_scale) ** self.prop.two_b
        except OverflowError:
            raise ValueError(
                f"lam {self.lam!r} is too small: its distance scale {self.rho_scale:.3g} km "
                f"overflows when raised to two_b"
            ) from None
        if (0.1 * self.rho_scale) ** self.prop.two_b < sys.float_info.min:
            raise ValueError(f"lam {self.lam!r} is too large: its distance scale "
                             f"{self.rho_scale:.3g} km underflows when raised to two_b")
        if self.window_radius is None:
            object.__setattr__(self, "window_radius", 5.0 / math.sqrt(self.lam))
        _check_positive("window_radius", self.window_radius)

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

    n_x, n_rho and n_serving are the coarse orders n of the nested
    Gauss-Kronrod pairs G(n) in K(2n+1) for the cell distance, the
    offset and the serving distance (both on the graded Rayleigh rule);
    each rule evaluates its integrand at the 2n + 1 Kronrod nodes.
    inner_abs_tol bounds the accepted |K - G| of one Laplace-transform
    value, outer_abs_tol the same for a coverage value, and the Kronrod
    value is returned.  A failing comparison doubles the coarse orders
    up to max_refinements times before raising; max_refinements=0
    raises at the first failure.  The doubled orders are n_x and n_rho
    (Laplace) and n_serving (coverage).  n_theta, the midpoint angle
    rule shared by both estimates, is never doubled, so the tolerances
    do not bound the error of the angle rule.  ase_rel_tol bounds the
    |K - G| of each spectral-efficiency g integral relative to its value,
    and that of the serving-distance rule relative to the total; a
    failing g integral doubles its own order (from _ASE_NODES), a
    failing serving rule n_serving (see :func:`tddgeom.ppp_ase.ase`).
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
            _check_real(name, getattr(self, name))
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("n_theta", "n_rho", "n_x", "n_serving"):
            _check_count(name, getattr(self, name), 2)
        _check_count("max_refinements", self.max_refinements, 0)


_DEFAULT_QUAD = QuadratureControl()

# elements (8 bytes each) of the uplink-kernel buffer: about 1 MB, so
# the in-place passes over it stay in cache and a large batch adds no
# memory
_CHUNK = 1 << 17

# interfering pairs per chunk of the Monte Carlo sampler: its buffer
# holds about 6 numbers per pair, 12 MB
_SAMPLE_CHUNK = 1 << 18


def _rayleigh_rule(n, lam):
    """Distances and their (2, 2n + 1) Kronrod and Gauss weights for a
    Rayleigh distance of density lam, on the nested pair of coarse order
    n: the CDF u = 1 - exp(-lam pi d^2), graded by u = t^2 (3 - 2t) so
    that the integrand vanishes like t at d -> 0 and like 1 - t at
    d -> infinity (see the module notes)."""
    t, w = gauss_kronrod_unit(n)
    # -ln(1 - u), with 1 - u = (1 - t)^2 (1 + 2t) exact near t = 1
    d2 = -(2.0 * np.log1p(-t) + np.log1p(2.0 * t)) / (lam * math.pi)
    return np.sqrt(d2), w * (6.0 * t * (1.0 - t))


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
    attaches to the nearest cell of the process (the first of equals),
    whose own user then stops interfering (to a cell at its own-user
    offset when the window holds none); for uplink the typical cell
    serves its own user at a Rayleigh offset and every pair interferes.

    Draw i consumes only stream (seed, i), in this order: the serving
    exponential (Rayleigh, unless serving_r is given), the Poisson count
    n, then 3n uniforms (position radii, position angles, direction
    flags), n offset exponentials, n offset angles, the own-user offset
    and an unused angle (nearest only), and n + 1 exponentials (the
    serving fade, then the fades).  Each merged call reads the same
    numbers as the separate calls it replaces.  A draw's numbers are
    written into a chunk buffer of about _SAMPLE_CHUNK pairs, and the
    arithmetic runs once per chunk.
    """
    direction = check_direction(direction)
    if n_draws < 1:
        raise ValueError(f"n_draws must be at least 1, got {n_draws}")
    if association not in ("rayleigh", "nearest"):
        raise ValueError(f"association must be 'rayleigh' or 'nearest', got {association!r}")
    lam_pi = scenario.lam * math.pi
    mean_n = lam_pi * scenario.window_radius**2
    nearest = association == "nearest"
    draw_r = serving_r is None and not nearest
    # per draw, 6n + 1 numbers, and two more for nearest association
    extra = 2 if nearest else 0
    streams = rng.Streams(seed)
    counts = np.empty(n_draws, dtype=np.int64)
    serving_exp = np.empty(n_draws)
    out = tuple(np.empty(n_draws) for _ in range(4))
    buf = np.empty(6 * _SAMPLE_CHUNK + 1 + extra)
    lo = used = 0
    for i in range(n_draws):
        gen = streams.at(i)
        if draw_r:
            serving_exp[i] = gen.standard_exponential()
        n = int(gen.poisson(mean_n))
        size = 6 * n + 1 + extra
        if used + size > buf.size:
            _sample_chunk(scenario, direction, nearest, serving_r, buf, counts[lo:i],
                          serving_exp[lo:i], [a[lo:i] for a in out])
            lo, used = i, 0
            if size > buf.size:
                buf = np.empty(size)
        counts[i] = n
        block = buf[used : used + size]
        gen.random(out=block[: 3 * n])
        gen.standard_exponential(out=block[3 * n : 4 * n])
        gen.random(out=block[4 * n : 5 * n])
        if nearest:
            gen.standard_exponential(out=block[5 * n : 5 * n + 1])
            gen.random()  # the own-user angle: no quantity depends on it
        gen.standard_exponential(out=block[5 * n + extra :])
        used += size
    _sample_chunk(scenario, direction, nearest, serving_r, buf, counts[lo:],
                  serving_exp[lo:], [a[lo:] for a in out])
    return out


def _sample_chunk(scenario, direction, nearest, serving_r, buf, counts, serving_exp, out):
    """The arithmetic of :func:`_sample` for the draws whose numbers are
    laid out in buf; writes useful, from_dl, from_ul and distance into
    the four arrays of out."""
    m = counts.size
    if m == 0:
        return
    useful, from_dl, from_ul, distance = out
    lam_pi = scenario.lam * math.pi
    w = scenario.window_radius
    prop = scenario.prop
    b = prop.b
    extra = 2 if nearest else 0
    size = 6 * counts + 1 + extra
    block = np.cumsum(size) - size
    first = np.cumsum(counts) - counts
    total = int(counts.sum())
    draw = np.repeat(np.arange(m), counts)
    step = np.repeat(counts, counts)
    # index of each pair's first number: its draw's block, plus its rank
    at = np.repeat(block - first, counts) + np.arange(total)
    x2 = buf[at]
    x2 *= w * w  # squared cell distances
    at += step
    angle = buf[at]
    at += step
    is_dl = buf[at] < scenario.mix.alpha_d
    at += step
    rho2 = buf[at] / lam_pi  # squared offsets
    at += step
    x = np.sqrt(x2)
    # the squared distance from each pair's user to the receiver
    d2 = _dist2_polar(x, math.pi * angle, np.sqrt(rho2), buf[at])
    at += step + 1 + extra
    fades = buf[at]
    serving_fade = buf[block + 5 * counts + extra]
    term = np.where(is_dl, x2 ** (-b), rho2 ** (b * prop.k) * d2 ** (-b))
    term *= fades

    if not nearest:
        r = np.sqrt(serving_exp / lam_pi) if serving_r is None else np.full(m, float(serving_r))
        keep = x > r[draw]
    else:
        r = np.sqrt(buf[block + 5 * counts] / lam_pi)
        keep = np.ones(total, dtype=bool)
        if direction == "dl" and total > 0:
            # the nearest cell of each draw that has one, first of equals
            filled = counts > 0
            r[filled] = np.minimum.reduceat(x, first[filled])
            hit = np.flatnonzero(x == r[draw])
            owner = draw[hit]
            keep[hit[np.r_[True, owner[1:] != owner[:-1]]]] = False
    from_dl[:] = scenario.p_small_mw * np.bincount(draw, np.where(keep & is_dl, term, 0.0), m)
    from_ul[:] = scenario.p_small_star_mw * np.bincount(draw, np.where(keep & ~is_dl, term, 0.0), m)
    if direction == "dl":
        useful[:] = scenario.p_small_mw * serving_fade * r ** (-prop.two_b)
    else:
        useful[:] = scenario.p_small_star_mw * serving_fade * r ** (-prop.two_b * (1.0 - prop.k))
    distance[:] = r


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
    leave only its leading digits.  The offset is integrated by the
    graded nested pair of :func:`_rayleigh_rule` of coarse order n_rho,
    and the result has shape (2, x.size): the Kronrod estimate, then the
    Gauss estimate, both from one evaluation on the Kronrod nodes.

    The typical user and the typical cell see the same field, so one
    kernel serves both receptions: the offset angle is uniform, and the
    sign of the cross term in the squared distance is immaterial.  With
    the minus sign the kernel peaks at theta = 0, which no midpoint node
    hits; with the plus sign it would peak at theta = pi, a node
    whenever n_theta is odd.

    The uplink term is built theta-first, one chunk of positions at a
    time, in one buffer of at most _CHUNK elements; it is skipped when
    no uplink pair transmits (alpha_u = 0 or zero uplink power), where
    its fraction is exactly 0 under either rule.
    """
    prop = scenario.prop
    b = prop.b
    mix = scenario.mix
    a_dl = v * scenario.p_small_mw * x ** (-2.0 * b)
    f_dl = a_dl / (1.0 + a_dl)
    p_ul = scenario.p_small_star_mw
    if mix.alpha_u == 0.0 or p_ul == 0.0:
        return np.broadcast_to(mix.alpha_d * f_dl, (2, x.size))
    rho, w = _rayleigh_rule(n_rho, scenario.lam)
    n_off = rho.size
    rho2 = rho * rho
    pc = rho ** (2.0 * b * prop.k)
    cos_theta, w_theta = _theta_fold(n_theta)
    n_t = w_theta.size
    step = max(1, _CHUNK // (n_t * n_off))
    buf = np.empty(n_t * min(step, x.size) * n_off)
    f_ul = np.empty((2, x.size))
    for lo in range(0, x.size, step):
        xs = x[lo:lo + step, None]
        m = xs.shape[0]
        d2 = buf[: n_t * m * n_off].reshape(n_t, m, n_off)
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
        per_offset = (w_theta @ d2.reshape(n_t, -1)).reshape(m, n_off)
        # not a matrix product, which may round a row by its place in
        # the batch
        f_ul[:, lo:lo + m] = np.einsum("mj,kj->km", per_offset, w)
    return mix.alpha_d * f_dl + mix.alpha_u * f_ul


def _pgfl_radial(v, r, scenario, n_x, n_theta, n_rho):
    """Per (v, r) pair of the 1-D arrays v and r: the integral over
    (r, infinity) of _mean_kernel(x) x dx, split at the kernel
    turnover scale with an algebraic tail map, each part on the nested
    pair G(n_x) in K(2 n_x + 1).  Returns shape (2, v.size): the
    Kronrod estimate (Kronrod in x and in the offset), then the Gauss
    estimate (Gauss in both).  All nodes of all pairs go through one
    kernel call."""
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
    nodes, weights = gauss_kronrod(n_x)
    lo, hi = r[mid, None], x_break[mid, None]
    xm = 0.5 * (hi + lo) + 0.5 * (hi - lo) * nodes
    s, ws = gauss_kronrod_unit(n_x)
    xt = x_break[:, None] * s ** (-1.0 / z)
    jac = (x_break * x_break / z)[:, None] * s ** (-2.0 / z - 1.0)
    frac = _mean_kernel(
        np.concatenate((xm.ravel(), xt.ravel())),
        np.concatenate((np.repeat(v[mid], nodes.size), np.repeat(v, nodes.size))),
        scenario, n_theta, n_rho,
    ).reshape(2, -1, nodes.size)
    total = np.einsum("kpj,kj->kp", frac[:, mid.size:] * jac, ws)
    mid_jac = xm * (0.5 * (hi - lo))
    total[:, mid] += np.einsum("kpj,kj->kp", frac[:, : mid.size] * mid_jac, weights)
    return total


def _laplace(v, r, scenario, quad):
    """Laplace transforms at the pairs of the 1-D arrays v and r.  Each
    pair is refined on its own: a pair whose Kronrod and Gauss values
    differ by more than inner_abs_tol goes on to doubled x and offset
    orders; the others return their Kronrod value."""
    if np.any(v < 0) or np.any(r < 0):
        raise ValueError("v and r must be non-negative")
    out = np.ones(v.size)
    todo = np.flatnonzero(v != 0)
    pref = 2.0 * math.pi * scenario.lam
    n_x, n_rho = quad.n_x, quad.n_rho
    for _ in range(quad.max_refinements + 1):
        fine, coarse = np.exp(
            -pref * _pgfl_radial(v[todo], r[todo], scenario, n_x, quad.n_theta, n_rho)
        )
        disc = np.abs(fine - coarse)
        done = disc <= quad.inner_abs_tol
        out[todo[done]] = fine[done]
        todo, fine, disc = todo[~done], fine[~done], disc[~done]
        if todo.size == 0:
            return out
        n_x, n_rho = 2 * n_x, 2 * n_rho
    raise IntegrationError(
        f"Laplace transform not converged to {quad.inner_abs_tol} at v={v[todo[0]]}, r={r[todo[0]]}",
        achieved=float(fine[0]),
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


def _serving_link(scenario, direction):
    """The serving power and the serving path-loss exponent: P and 2b
    downlink, P* and 2b(1 - k) uplink under power control."""
    prop = scenario.prop
    if direction == "dl":
        return scenario.p_small_mw, prop.two_b
    return scenario.p_small_star_mw, prop.two_b * (1.0 - prop.k)


def _coverage_analytic(gamma_db, scenario, quad, direction):
    gamma = 10.0 ** (gamma_db / 10.0)
    p_serv, exp_serving = _serving_link(scenario, direction)
    if p_serv == 0.0:
        return 0.0  # a silent serving link: the SINR is 0
    n = quad.n_serving
    for _ in range(quad.max_refinements + 1):
        # int_0^1 e^{-vN} L_I(v, r) du over the serving CDF u, graded at
        # r -> 0, where the integrand falls steeply at high thresholds
        r, w = _rayleigh_rule(n, scenario.lam)
        v = gamma * r**exp_serving / p_serv
        val = np.exp(-v * scenario.p_noise_mw) * _laplace(v, r, scenario, quad)
        fine, coarse = (w @ val).tolist()
        disc = abs(fine - coarse)
        if disc <= quad.outer_abs_tol:
            return min(fine, 1.0)
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
