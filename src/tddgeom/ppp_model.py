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

Quadrature design.  Every rule in interferer distance, offset and
serving distance is a nested Gauss-Kronrod pair G(n) in K(2n+1) on
(-1, 1): one evaluation on the 2n + 1 Kronrod nodes gives both
estimates, K (exact to degree 3n + 1) and G (to 2n - 1).
:func:`tddgeom.quadrules.refine` doubles the coarse orders n_x and n_rho
(a Laplace value, each pair on its own) or n_serving (a coverage value)
until |K - G| <= tol, and an integration error carries the achieved
estimate of what still fails.  No rule sits outside that comparison.

The serving distance and each pair's offset are Rayleigh, and both
take one rule (:func:`_rayleigh_rule`): the CDF u = 1 - exp(-lam pi d^2),
graded by u = t^2 (3 - 2t).  On u alone the offset integrand has a
logarithmic singularity at rho -> infinity: with every pair in uplink
(k = 0.4, lam = 10) at (v, r) = (1.05e9, 0.52), the G(32) offset rule
errs by 1.1e-4 on u and by 3.7e-7 on the graded map.  At r -> 0 a
coverage integrand falls steeply at high thresholds and low densities,
and a spectral-efficiency row grows like ln(1/r).

The interference transform integrates, over the pairs beyond the
exclusion ball r, the interfered fraction g = c / (c + y^{2b}) =
1 - E[exp(-v h P y^{-2b})] of a transmitter at distance y: c = v P for
a downlink cell, c = v P* rho^{2bk} for an uplink user whose cell lies
at offset rho and a uniform angle.  The users of a displaced PPP are
again a PPP (Haenggi, Stochastic Geometry for Wireless Networks, 2012,
ch. 2), so the uplink term integrates over the user's position, and
per offset the angle average becomes a closed-form weight:

    int_{|x| > r} E_theta[g(|x - rho e^{i theta}|)] d^2x / (2 pi)
        = int_0^inf y g(y) W(y) dy,
    W = 1 - arccos(clip((y^2 + rho^2 - r^2) / (2 y rho), -1, 1)) / pi,

the fraction of angles that put the cell outside the ball.  W is 1 up
to rho - r and beyond r + rho, 0 up to r - rho, with square-root ends
at |r - rho| and r + rho.  So each (pair, offset) takes four pieces on
the pair of order n_x: [0, (rho - r)+]; [|r - rho|, r + rho], the only
one with arccos; [r + rho, max(r + rho, c^{1/2b})], up to where g turns
over; and the tail beyond, mapped by s = (e/y)^{2b-2} from its start e,
where y g(y) dy tends to a constant in s.  Each finite piece is graded
by t^2 (3 - 2t), which smooths the square-root ends.  The downlink term
is the same sum at offset 0 with c = v P: its first two pieces are
empty, and W = 1 from r.  The typical user and the typical cell see the
same field, so one transform serves both.

The kernel forms the interfered fraction itself, never one minus the
retention, so the far tail keeps its relative accuracy.  It takes a
batch of (v, r) pairs in chunks that reuse three buffers of _CHUNK
elements.  It skips empty pieces (r = rho happens: the serving and
offset rules share the node t = 1/2), so no node sits at y = 0.  Its
sums are einsum reductions, not BLAS products, so a pair's value is the
same to the bit in any batch.
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
    PropagationParams,
    TddMix,
    _check_count,
    _check_positive,
    _check_real,
    check_direction,
    check_gamma_grid,
    dbm_to_mw,
    empirical_coverage,
)
from .quadrules import gauss_kronrod_unit, refine

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
    raises DL coverage at 0 dB by 0.0133 (9 standard errors at 100k
    draws and seed 17; 0.0063 with a 3 km window, 0.0051 on average
    over seeds 18 to 25).  Both must be finite and positive,
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
    Gauss-Kronrod pairs G(n) in K(2n+1) for each piece of the
    interferer distance, the offset and the serving distance (both on
    the graded Rayleigh rule); each rule evaluates its integrand at the
    2n + 1 Kronrod nodes.
    inner_abs_tol bounds the |K - G| of one Laplace-transform value,
    outer_abs_tol that of a coverage value, and ase_rel_tol that of each
    spectral-efficiency g integral relative to its value and that of its
    serving-distance rule relative to the total.  Each is met by
    :func:`tddgeom.quadrules.refine`, with at most max_refinements
    doublings of the orders (0 raises at the first failure).
    n_theta is validated and ignored, as the offset angle is integrated
    in closed form; it stays so that old configs and meta.json load.
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
            _check_positive(name, getattr(self, name))
        for name in ("n_theta", "n_rho", "n_x", "n_serving"):
            _check_count(name, getattr(self, name), 2)
        _check_count("max_refinements", self.max_refinements, 0)


_DEFAULT_QUAD = QuadratureControl()

# elements (8 bytes each) of each of the three Laplace-kernel buffers,
# 512 KB, so that the in-place passes over them stay in cache and a
# large batch adds no memory
_CHUNK = 1 << 16

# draws per chunk of the Monte Carlo sampler.  Chunk c holds draws
# [c C, (c + 1) C) and reads only stream (seed, c), so this constant
# fixes the seeded draws.  At the default window a chunk holds about
# 40k pairs, whose arithmetic takes about 5 MB in its worker.
_CHUNK_DRAWS = 512
# counter blocks between the starts of two kinds of pair number in a
# chunk's stream: room for 2**38 numbers of each kind
_KIND_BLOCKS = 1 << 36


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

    The draws come in chunks of _CHUNK_DRAWS, computed by the workers of
    :func:`rng.chunk_map` (see :func:`_sample_chunk` for the numbers a
    chunk reads), so the draws do not depend on the worker count, and a
    run of n draws is a prefix of any longer run.
    """
    direction = check_direction(direction)
    _check_count("n_draws", n_draws, 1)
    if association not in ("rayleigh", "nearest"):
        raise ValueError(f"association must be 'rayleigh' or 'nearest', got {association!r}")

    def job(c):
        size = min(_CHUNK_DRAWS, n_draws - c * _CHUNK_DRAWS)
        return _sample_chunk(scenario, direction, association == "nearest", serving_r,
                             rng.Streams(seed), c, size)

    chunks = list(rng.chunk_map(job, range(-(-n_draws // _CHUNK_DRAWS))))
    return tuple(np.concatenate(parts) for parts in zip(*chunks))


def _sample_chunk(scenario, direction, nearest, serving_r, streams, c, m):
    """The first m draws of chunk c of :func:`_sample`: useful, from_dl,
    from_ul and distance.

    The chunk reads only stream (seed, c).  Its start holds
    _CHUNK_DRAWS serving exponentials (the Rayleigh serving distance, or
    for nearest association the own user's offset), _CHUNK_DRAWS serving
    fades and _CHUNK_DRAWS Poisson counts, all drawn whatever m is.
    Each kind of pair number then starts at its own block offset
    k * _KIND_BLOCKS, the pairs of each draw in turn: the position
    radius (k = 1), position angle, direction flag and offset angle
    uniforms, then the offset and fade exponentials (k = 6).
    """
    lam_pi = scenario.lam * math.pi
    w = scenario.window_radius
    prop = scenario.prop
    b = prop.b
    gen = streams.at(c)
    serving_exp = gen.standard_exponential(_CHUNK_DRAWS)[:m]
    serving_fade = gen.standard_exponential(_CHUNK_DRAWS)[:m]
    counts = gen.poisson(lam_pi * w * w, _CHUNK_DRAWS)[:m]
    total = int(counts.sum())
    x2, angle, flag, u_phi = (streams.at(c, k * _KIND_BLOCKS).random(total) for k in range(1, 5))
    rho2, fades = (streams.at(c, k * _KIND_BLOCKS).standard_exponential(total) for k in (5, 6))
    draw = np.repeat(np.arange(m), counts)
    x2 *= w * w  # squared cell distances
    is_dl = flag < scenario.mix.alpha_d
    rho2 /= lam_pi  # squared offsets
    x = np.sqrt(x2)
    angle *= math.pi  # half the cell's argument
    # the squared distance from each pair's user to the receiver
    d2 = _dist2_polar(x, angle, np.sqrt(rho2), u_phi, u_phi, angle)
    term = np.where(is_dl, x2 ** (-b), rho2 ** (b * prop.k) * d2 ** (-b))
    term *= fades

    r = np.sqrt(serving_exp / lam_pi) if serving_r is None else np.full(m, float(serving_r))
    if not nearest:
        keep = x > r[draw]
    else:
        keep = np.ones(total, dtype=bool)
        if direction == "dl" and total > 0:
            # the nearest cell of each draw that has one, first of equals
            filled = counts > 0
            r[filled] = np.minimum.reduceat(x, (np.cumsum(counts) - counts)[filled])
            hit = np.flatnonzero(x == r[draw])
            owner = draw[hit]
            keep[hit[np.r_[True, owner[1:] != owner[:-1]]]] = False
    from_dl = scenario.p_small_mw * np.bincount(draw, np.where(keep & is_dl, term, 0.0), m)
    from_ul = scenario.p_small_star_mw * np.bincount(draw, np.where(keep & ~is_dl, term, 0.0), m)
    if direction == "dl":
        useful = scenario.p_small_mw * serving_fade * r ** (-prop.two_b)
    else:
        useful = scenario.p_small_star_mw * serving_fade * r ** (-prop.two_b * (1.0 - prop.k))
    return useful, from_dl, from_ul, r


def ppp_interference_draws(scenario, direction, n_draws, seed):
    """Per-draw decomposition: useful power, interference from downlink
    pairs, from uplink pairs, their sum (the total used in the SINR),
    and the serving distance.  The draws of chunk c consume only stream
    (seed, c), so a run of n draws is a prefix of any longer run."""
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
    (scenario, seed) under any worker count, and a run of n draws is a
    prefix of any longer run.
    """
    useful, from_dl, from_ul, _ = _sample(scenario, direction, n_draws, seed, association)
    return useful / (from_dl + from_ul + scenario.p_noise_mw)


def mc_coverage_ppp(scenario, direction, gamma_grid_db, n_draws, seed, association="rayleigh"):
    """Empirical SINR CCDF over the threshold grid with 95% binomial
    half-widths, in O(draws + thresholds) memory.  A SINR tie or NaN is
    not covered and +inf is.  See mc_sinr_ppp for the draw model and
    determinism."""
    grid = check_gamma_grid(gamma_grid_db)
    sinr = mc_sinr_ppp(scenario, direction, n_draws, seed, association)
    return empirical_coverage(grid, [sinr], n_draws)


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


@lru_cache(maxsize=64)
def _piece_rule(n, two_b):
    """Nodes and (2, 2n + 1) Kronrod and Gauss weights of the finite
    pieces of :func:`_piece_integrals`, at u = t^2 (3 - 2t), and of the
    tail beyond e, at y = e s^{-1/z} with z = 2b - 2 (see the module
    notes), on the nested pair of coarse order n."""
    t, w = gauss_kronrod_unit(n)
    z = two_b - 2.0
    return ((t * t * (3.0 - 2.0 * t), w * (6.0 * t * (1.0 - t))),
            (t ** (-1.0 / z), w * t ** (-1.0 / z - 1.0) / z))


def _piece_integrals(start, scale, turn, rho, r, two_b, n, work):
    """Kronrod and Gauss estimates, shape (2, R), of int y g(y) W(y) dy
    over the pieces of each of R rows, with g = 1 / (1 + (y / turn)^{2b}).
    start and scale have shape (R, Q): the finite pieces are
    [start, start + scale], and the last is the tail beyond its scale.
    W is 1 but on piece 1, where it is the angle weight of the module
    notes at offset rho and ball r, 1-D arrays of length R.  work is
    three flat buffers of at least R (2n + 1) elements.
    """
    finite, tail = _piece_rule(n, two_b)
    total = np.zeros((2, start.shape[0]))
    for q in range(start.shape[1]):
        tau, omega = tail if q == start.shape[1] - 1 else finite
        live = np.flatnonzero(scale[:, q] > 0.0)
        if not live.size:
            continue
        y = work[0][: live.size * tau.size].reshape(live.size, tau.size)
        den = work[1][: y.size].reshape(y.shape)
        # in units of the turnover, where g = 1/2
        at = turn[live, None]
        h = scale[live, q, None] / at
        np.multiply(h, tau, out=y)
        y += start[live, q, None] / at
        if q == 1:
            rho_l, r_l = rho[live, None], r[live, None]
            # pi W = arccos(-q'), with q' = (y^2 + rho^2 - r^2) / (2 y rho)
            angle = work[2][: y.size].reshape(y.shape)
            np.multiply(y, y, out=angle)
            angle += (rho_l - r_l) * (rho_l + r_l) / (at * at)
            angle /= y
            angle *= -0.5 * at / rho_l
            np.clip(angle, -1.0, 1.0, out=angle)
            np.arccos(angle, out=angle)
        np.power(y, two_b, out=den)
        den += 1.0
        y /= den
        weight = h[:, 0] * at[:, 0] ** 2
        if q == 1:
            y *= angle
            weight /= math.pi
        # einsum, not a matrix product, which may round a row by its
        # place in the batch
        total[:, live] += np.einsum("rk,ek->er", y, omega) * weight
    return total


def _offset_integrals(v, r, rho, power, k, two_b, n, work):
    """Per pair of the 1-D arrays v and r and per offset of the 1-D rho:
    int_0^inf y g(y) W(y) dy, the angle average of the interfered
    fraction of a transmitter of power ``power`` under power control
    rho^{2bk}, at offset rho from a cell beyond r, integrated over the
    cells (see the module notes), on four pieces.  A cell's own
    downlink is the offset 0 with k = 0, whose first two pieces are
    empty.  Returns shape (2, v.size, rho.size)."""
    r = r[:, None]
    turn = (v[:, None] * power) ** (1.0 / two_b) * rho**k
    near, far = np.abs(rho - r), rho + r
    edge = np.maximum(far, turn)
    # [0, (rho - r)+] and [rho + r, edge] with W = 1, [|rho - r|, rho + r]
    # between them, and the tail
    start = np.stack(np.broadcast_arrays(0.0, near, far, 0.0), axis=-1)
    scale = np.stack((np.maximum(rho - r, 0.0), far - near, edge - far, edge), axis=-1)
    return _piece_integrals(start.reshape(-1, 4), scale.reshape(-1, 4), turn.ravel(),
                            *(c.ravel() for c in np.broadcast_arrays(rho, r)), two_b, n, work).reshape(2, *turn.shape)


def _pgfl_radial(v, r, scenario, n_x, n_rho):
    """Per (v, r) pair of the 1-D arrays v and r: the mean interfered
    fraction of the pairs beyond r integrated against x dx, E, so that
    the Laplace transform is exp(-2 pi lam E).  The downlink term is
    :func:`_offset_integrals` at the offset 0 without power control, the
    uplink term at each offset node of order n_rho; a silent term is
    skipped.  Returns shape (2, v.size): the Kronrod estimate (Kronrod
    in y and offset), then the Gauss estimate."""
    mix, prop = scenario.mix, scenario.prop
    rho, w_rho = _rayleigh_rule(n_rho, scenario.lam)
    # each term's share, offsets and their Kronrod and Gauss weights,
    # power and power-control exponent
    terms = [term for term in ((mix.alpha_d, np.zeros(1), np.ones((2, 1)), scenario.p_small_mw, 0.0),
                               (mix.alpha_u, rho, w_rho, scenario.p_small_star_mw, prop.k))
             if term[0] > 0.0 and term[3] > 0.0]
    rows = max((term[1].size for term in terms), default=1)
    row_size = 2 * n_x + 1
    # pairs per chunk, and offsets per pass (all, unless one pair fills _CHUNK)
    step = max(1, _CHUNK // (rows * row_size))
    block = max(1, _CHUNK // (step * row_size))
    size = min(step, v.size) * min(block, rows) * row_size
    work = [np.empty(size) for _ in range(3)]
    total = np.zeros((2, v.size))
    for lo in range(0, v.size, step):
        vs, rs = v[lo : lo + step], r[lo : lo + step]
        for share, offsets, weights, power, k in terms:
            per_offset = np.concatenate([_offset_integrals(vs, rs, offsets[j : j + block], power, k, prop.two_b,
                                                           n_x, work) for j in range(0, offsets.size, block)], axis=2)
            total[:, lo : lo + vs.size] += share * np.einsum("emj,ej->em", per_offset, weights)
    return total


def _laplace(v, r, scenario, quad):
    """Laplace transforms at the pairs of the 1-D arrays v and r.  Each
    pair with v > 0 is refined on its own (:func:`tddgeom.quadrules.refine`)
    to |K - G| <= inner_abs_tol, doubling the distance and offset orders;
    v = 0 gives exactly 1."""
    if not (np.all((v >= 0) & (v < math.inf)) and np.all((r >= 0) & (r < math.inf))):
        raise ValueError("v and r must be finite and non-negative")
    out = np.ones(v.size)
    live = np.flatnonzero(v != 0)
    pref = 2.0 * math.pi * scenario.lam

    def estimate(level, todo):
        at = live[todo]
        radial = _pgfl_radial(v[at], r[at], scenario, quad.n_x << level, quad.n_rho << level)
        return np.exp(-pref * radial)

    out[live], failed, disc = refine(estimate, live.size, lambda fine: quad.inner_abs_tol,
                                     quad.max_refinements)
    if failed.size:
        at = live[failed[0]]
        raise IntegrationError(
            f"Laplace transform not converged to {quad.inner_abs_tol} at v={v[at]}, r={r[at]}",
            achieved=float(out[at]),
            discrepancy=float(disc[0]),
        )
    return out


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

    def estimate(level, todo):
        # int_0^1 e^{-vN} L_I(v, r) du over the serving CDF u, graded at
        # r -> 0, where the integrand falls steeply at high thresholds
        r, w = _rayleigh_rule(quad.n_serving << level, scenario.lam)
        v = gamma * r**exp_serving / p_serv
        return (w @ (np.exp(-v * scenario.p_noise_mw) * _laplace(v, r, scenario, quad)))[:, None]

    (value,), failed, disc = refine(estimate, 1, lambda fine: quad.outer_abs_tol, quad.max_refinements)
    if failed.size:
        raise IntegrationError(
            f"coverage integral not converged to {quad.outer_abs_tol} at gamma_db={gamma_db}",
            achieved=float(value),
            discrepancy=float(disc[0]),
        )
    return min(float(value), 1.0)


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
