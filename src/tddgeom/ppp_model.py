"""Small-cell tier: the model and the Laplace-transform route to
coverage.  The Monte Carlo that checks it is in
:mod:`tddgeom.ppp_sampler`, and the spectral efficiency built on the
same transform in :mod:`tddgeom.ppp_ase`.

Model summary.  Users form a homogeneous PPP; each user's serving cell
sits at an independent Rayleigh-distributed offset (the displacement
construction), every link fades independently exponential with unit
mean, and each interfering pair transmits downlink with probability
alpha_d or uplink (under fractional power control rho^{2bk}) otherwise.
The typical link's serving distance is Rayleigh with an exclusion ball
around the receiver, which is also the paper-of-record approximation
the analytic transforms integrate exactly.

Quadrature design.  Every rule in interferer distance, offset and
serving distance is a nested Gauss-Kronrod pair G(n) in K(2n+1) on
(-1, 1): one evaluation on the 2n + 1 Kronrod nodes gives both
estimates, K (exact to degree 3n + 1) and G (to 2n - 1).
:func:`tddgeom.quadrules.refine` doubles the coarse orders n_x and n_rho
(a Laplace value, each pair on its own) or n_serving (a coverage value,
each threshold on its own) until |K - G| <= tol, and an integration
error carries the achieved estimate of what still fails.  No rule sits
outside that comparison.

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

Only g depends on v: g = v / (v + a), a = (y / u)^{2b}, with the unit
u = P^{1/2b} for a cell and P*^{1/2b} rho^k for a user.  So the kernel
sorts its (v, r) pairs by r and builds, per r and block of offsets, one
table of the nodes of pieces 0 and 1 and of the tail from r + rho: a,
and the weights times scale y W.  A pair then costs one v / (v + a) per
node and one einsum; where its turnover t passes r + rho, it drops that
tail and takes piece 2 plus t^2 C: in units of t, the tail beyond t is
the same for every pair, one constant C per rule.  A build holds at
most _CHUNK / 4 nodes, several small tables at once, and the pairs run
in chunks of one _CHUNK buffer, so a batch adds no memory.

The kernel forms the interfered fraction itself, never one minus the
retention, so the far tail keeps its relative accuracy.  Empty pieces
0 and 1 have no nodes (r = rho happens: the serving and offset rules
share t = 1/2), so the angle weight never sees y = 0.  A pair's value
reads only its own (v, r) and the tables of its r, through einsum
reductions (not BLAS products) and sums in a fixed order, so it is the
same to the bit in any batch.
"""

import math
import sys
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .params import PropagationParams, TddMix, _check_count, _check_linear, _check_real, dbm_to_mw, thresholds
from .quadrules import gauss_kronrod_unit, refine

__all__ = [
    "SmallCellScenario",
    "QuadratureControl",
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
            _check_real(name, getattr(self, name), -math.inf, math.inf, "[)")
            _check_linear(f"{name} - a_db", getattr(self, name) - self.prop.a_db)
        _check_real("lam", self.lam, 0.0, math.inf)
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
        _check_real("window_radius", self.window_radius, 0.0, math.inf)

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
            _check_real(name, getattr(self, name), 0.0, math.inf)
        for name in ("n_theta", "n_rho", "n_x", "n_serving"):
            _check_count(name, getattr(self, name), 2)
        _check_count("max_refinements", self.max_refinements, 0)


_DEFAULT_QUAD = QuadratureControl()

# elements (8 bytes each) of the Laplace kernel's buffer, 512 KB, and
# four times the nodes of one build of its tables, so that the passes
# over them stay in cache and a large batch adds no memory
_CHUNK = 1 << 16

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
def _piece_rule(n, two_b):
    """Nodes and (2, 2n + 1) Kronrod and Gauss weights of the finite
    pieces of the kernel, at u = t^2 (3 - 2t), and of the tail beyond
    e, at y = e s^{-1/z} with z = 2b - 2 (see the module notes), on the
    nested pair of coarse order n; and C, the (2,) estimates on that tail
    of int_1^inf y / (1 + y^{2b}) dy.  A tail so flat (2b near 2) that
    its nodes or their powers overflow is NaN, which refine never accepts."""
    t, w = gauss_kronrod_unit(n)
    z = two_b - 2.0
    with np.errstate(over="ignore"):
        y, dy = t ** (-1.0 / z), t ** (-1.0 / z - 1.0)
        if not np.isfinite(dy / z).all():  # y = t dy, finite where dy / z is
            y = dy = np.full(t.size, math.nan)
        den = y**two_b
    den[np.isinf(den)] = math.nan
    den += 1.0
    np.divide(y, den, out=den)
    tail = (y, w * dy / z)
    return (t * t * (3.0 - 2.0 * t), w * (6.0 * t * (1.0 - t))), tail, np.einsum("k,ek->e", den, tail[1])


def _offset_tables(radii, rho, wo, unit, two_b, rules):
    """What no pair's v changes, per r of radii and offset of rho: the
    rows of 2n + 1 nodes of [0, (rho - r)+], [|r - rho|, r + rho] and
    the tail beyond r + rho.  An empty piece 0 or 1 has none, so the
    angle weight never divides by y = 0; a tail from r + rho = 0 weighs
    0, and every pair drops it.  wo (2, 2J, 2n + 1) is each offset's weights times those of
    the finite rule, then of the tail rule.  Returns a = (y / unit)^{2b}
    and the weights wo scale y W, (2, nodes), each r's rows piece by
    piece with its J tails last; each r's node bounds; and r + rho."""
    (tau, _), (tau_t, _), _ = rules
    near, far = np.abs(rho - radii[:, None]), rho + radii[:, None]
    scale = np.stack((np.maximum(rho - radii[:, None], 0.0), far - near, far))
    live = scale > 0.0
    live[2] = True
    p, i, j = np.nonzero(live)
    s = scale[p, i, j]
    cut, end = np.searchsorted(p, (1, 2)).tolist()
    # y / unit, and a in place at the end
    a, per_unit = np.empty((p.size, tau.size)), s / unit[j]
    np.multiply(per_unit[:end, None], tau, out=a[:end])
    np.multiply(per_unit[end:, None], tau_t, out=a[end:])
    mid = slice(cut, end)
    rm, om, um = radii[i[mid]], rho[j[mid]], unit[j[mid]]
    a[mid] += (near[i[mid], j[mid]] / um)[:, None]
    wt = np.take(wo, (p == 2) * rho.size + j, axis=1)
    with np.errstate(over="ignore"):  # a tail too flat for floats: its weights are NaN
        wt *= (s * unit[j])[:, None] * a
    wt[np.isinf(wt)] = math.nan
    # pi W = arccos(-q) on piece 1, with q = (y^2 + rho^2 - r^2) / (2 y rho)
    angle = a[mid] * a[mid]
    angle += ((om - rm) * (om + rm) / (um * um))[:, None]
    angle /= a[mid]
    angle *= (-0.5 * um / om)[:, None]
    np.clip(angle, -1.0, 1.0, out=angle)
    np.arccos(angle, out=angle)
    wt[:, mid] *= angle / math.pi
    # a tiny unit overflows a to +inf, where g = v / (v + a) takes its limit 0
    with np.errstate(over="ignore"):
        np.power(a, two_b, out=a)
    if radii.size > 1:
        rows = np.argsort(i, kind="stable")
        a, wt = a[rows], wt[:, rows]
    bounds = (np.concatenate(([0], np.cumsum(live.sum(axis=(0, 2))))) * tau.size).tolist()
    return a.ravel(), wt.reshape(2, -1), bounds, far


def _beyond_turnover(far, turn, two_b, rules, work):
    """Kronrod and Gauss estimates, (2, R), of int y g(y) dy from
    far < turn on, g = 1 / (1 + (y / turn)^{2b}): [far, turn] in units
    of turn, then turn^2 C (see _piece_rule), +inf past the double range.
    work is a buffer of at least 2R (2n + 1) elements."""
    (tau, omega), _, tail = rules
    y, den = work[: 2 * far.size * tau.size].reshape(2, far.size, tau.size)
    h = (turn - far) / turn
    np.multiply(h[:, None], tau, out=y)
    y += (far / turn)[:, None]
    np.power(y, two_b, out=den)
    den += 1.0
    y /= den
    with np.errstate(over="ignore"):
        return np.einsum("rk,ek->er", y, omega) * (h * turn * turn) + tail[:, None] * (turn * turn)


def _offset_sum(v, r, rho, weight, unit, two_b, n):
    """Per pair of the 1-D arrays v > 0 and r, (2, v.size): the Kronrod
    and Gauss estimates of sum_j weight_j int y g_j W_j dy over the
    offsets rho_j, g_j = v / (v + (y / unit_j)^{2b}), on the pieces of
    order n (see the module notes)."""
    rules = _piece_rule(n, two_b)
    size = rules[0][0].size
    # offsets per block, and serving distances per build of tables
    block = max(1, _CHUNK // (12 * size))
    per_build = max(1, _CHUNK // (12 * size * min(block, rho.size)))
    omegas = np.stack([omega for _, omega in rules[:2]], axis=1)
    order = np.argsort(r, kind="stable")
    v, r = v[order], r[order]
    radii, first = np.unique(r, return_index=True)
    spans = list(zip(first.tolist(), first[1:].tolist() + [r.size]))
    root = v ** (1.0 / two_b)
    work = np.empty(min(_CHUNK, v.size * 3 * size * min(block, rho.size)))
    total, beyond = np.zeros((2, v.size)), np.zeros((2, v.size))
    pending, held = [], 0  # rows beyond their turnover: pair, offset, r + rho, turnover

    def settle():
        at, j, far, turn = map(np.concatenate, zip(*pending))
        pending.clear()
        w = weight[:, j]
        with np.errstate(invalid="ignore"):
            terms = _beyond_turnover(far, turn, two_b, rules, work) * w
        terms[w <= 0.0] = 0.0  # a weight of 0 takes none of an area of +inf
        for e in range(2):  # row by row, wherever other pairs' rows fall
            np.add.at(beyond[e], at, terms[e])

    for lo in range(0, rho.size, block):
        part = slice(lo, lo + block)
        wo = (weight[:, None, part, None] * omegas[:, :, None, :]).reshape(2, -1, size)
        unit_b = unit[part]
        for k0 in range(0, radii.size, per_build):
            a, wt, bounds, far = _offset_tables(radii[k0 : k0 + per_build], rho[part], wo, unit_b, two_b, rules)
            for k, (start, stop) in enumerate(spans[k0 : k0 + per_build]):
                a_k, wt_k, far_k = a[bounds[k] : bounds[k + 1]], wt[:, bounds[k] : bounds[k + 1]], far[k]
                # pairs per chunk, whose rows beyond the turnover also fit
                # half of the buffer, as _beyond_turnover takes them
                step = work.size // max(a_k.size, 2 * size * far_k.size)
                for i in range(start, stop, step):
                    at = slice(i, min(i + step, stop))
                    va = v[at, None]
                    g = work[: va.size * a_k.size].reshape(va.size, a_k.size)
                    np.add(va, a_k, out=g)
                    np.divide(va, g, out=g)
                    turn = root[at, None] * unit_b
                    over = turn > far_k
                    hit = over.any()
                    if hit:
                        g[:, a_k.size - far_k.size * size :].reshape(va.size, far_k.size, size)[over] = 0.0
                    # einsum, not a matrix product, which may round a row
                    # by its place in the batch
                    total[:, at] += np.einsum("mk,ek->em", g, wt_k)
                    if hit:
                        m, j = np.nonzero(over)
                        if held + m.size > work.size // (2 * size):
                            settle()
                            held = 0
                        pending.append((i + m, lo + j, far_k[j], turn[m, j]))
                        held += m.size
    if pending:
        settle()
    total += beyond
    out = np.empty((2, v.size))
    out[:, order] = total
    return out


def _pgfl_radial(v, r, scenario, n_x, n_rho):
    """Per (v, r) pair of the 1-D arrays v > 0 and r: E, the mean
    interfered fraction of the pairs beyond r against x dx, so that the
    Laplace transform is exp(-2 pi lam E).  The downlink term is the
    offset 0 of unit P^{1/2b}, the uplink one each offset node of order
    n_rho, of unit P*^{1/2b} rho^k; a silent term is skipped.  At
    v = +inf every heard pair is fully interfered, so E is +inf, or 0
    with no term.  Returns (2, v.size): the Kronrod estimate (in y and
    offset), then Gauss."""
    mix, prop = scenario.mix, scenario.prop
    rho, w_rho = _rayleigh_rule(n_rho, scenario.lam)
    # each term's share, offsets and their weights, power and exponent k
    terms = [term for term in ((mix.alpha_d, np.zeros(1), np.ones((2, 1)), scenario.p_small_mw, 0.0),
                               (mix.alpha_u, rho, w_rho, scenario.p_small_star_mw, prop.k))
             if term[0] > 0.0 and term[3] > 0.0]
    if not terms:
        return np.zeros((2, v.size))
    finite = v < math.inf
    if not finite.all():
        out = np.full((2, v.size), math.inf)
        out[:, finite] = _pgfl_radial(v[finite], r[finite], scenario, n_x, n_rho)
        return out
    offsets, weights, units = (np.concatenate(parts, axis=-1) for parts in zip(
        *((rho_t, share * w, power ** (1.0 / prop.two_b) * rho_t**k) for share, rho_t, w, power, k in terms)))
    return _offset_sum(v, r, offsets, weights, units, prop.two_b, n_x)


def _laplace(v, r, scenario, quad, noise=0.0):
    """E[exp(-v (noise + I)) | r] = exp(-v noise) L_I(v, r) at the pairs
    of the 1-D arrays v >= 0 (+inf allowed) and finite r >= 0, with the
    noise power in mW.  The one rule: a pair whose noise factor
    exp(-v noise) is 0 gives 0 and takes no transform, v = 0 gives
    exactly 1, and v = +inf takes its limit, 0 or, over a noiseless and
    silent interfering field, 1.  Each other pair is refined on its own
    (:func:`tddgeom.quadrules.refine`) on L_I alone to |K - G| <=
    inner_abs_tol, doubling the distance and offset orders."""
    out = np.exp(-noise * v) if noise else np.ones(v.size)
    live = np.flatnonzero((out > 0.0) & (v != 0))
    pref = 2.0 * math.pi * scenario.lam

    def estimate(level, todo):
        at = live[todo]
        radial = _pgfl_radial(v[at], r[at], scenario, quad.n_x << level, quad.n_rho << level)
        return np.exp(-pref * radial)

    out[live] *= refine(estimate, live.size, lambda fine: quad.inner_abs_tol, quad.max_refinements,
                        lambda i: f"Laplace transform not converged to {quad.inner_abs_tol} "
                                  f"at v={v[live[i]]}, r={r[live[i]]}")
    return out


def laplace_dl(v, r, scenario, quad=None):
    """Laplace transform of the downlink-reception interference
    conditioned on serving distance r, via the Poisson PGFL over
    interfering pairs outside the exclusion ball, at finite v, r >= 0.
    Returns a value in (0, 1]; v=0 or vanishing density give exactly 1.
    """
    _check_real("v", v, 0.0, math.inf, "[)")
    _check_real("r", r, 0.0, math.inf, "[)")
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
    gamma, scalar = thresholds(gamma_db)
    p_serv, exp_serving = _serving_link(scenario, direction)
    values = np.zeros(gamma.size)  # a silent serving link: the SINR is 0
    if p_serv > 0.0 and gamma.size:
        def estimate(level, todo):
            # int_0^1 e^{-vN} L_I(v, r) du over the serving CDF u, graded at
            # r -> 0, where the integrand falls steeply at high thresholds
            r, w = _rayleigh_rule(quad.n_serving << level, scenario.lam)
            with np.errstate(over="ignore"):  # _laplace takes the limit of a v of +inf
                v = gamma[todo, None] * r**exp_serving / p_serv
            success = _laplace(v.ravel(), np.broadcast_to(r, v.shape).ravel(), scenario, quad, scenario.p_noise_mw)
            return np.einsum("tn,en->et", success.reshape(v.shape), w)

        values = refine(estimate, gamma.size, lambda fine: quad.outer_abs_tol, quad.max_refinements,
                        lambda i: f"coverage integral not converged to {quad.outer_abs_tol} "
                                  f"at gamma_db={np.ravel(gamma_db)[i]}")
        np.minimum(values, 1.0, out=values)
    return float(values[0]) if scalar else values


def coverage_ppp_dl(gamma_db, scenario, quad=None):
    """Coverage probability of the typical downlink at the threshold
    ``gamma_db``, a float (giving a float) or a 1-D grid.  The serving
    fade is exponential, so coverage is the Rayleigh-weighted integral
    of the noise factor times the interference Laplace transform at
    v = gamma r^{2b} / P_small, both formed by :func:`_laplace` under its
    one rule: a zero noise factor gives 0, and a v that overflows to +inf
    takes its limit.  A silent serving link covers nothing.  Each
    threshold refines its serving rule on its own to outer_abs_tol, and
    each level sends the nodes of all open thresholds to one Laplace
    batch, where they share the work of each serving distance.  A
    threshold gets the same value, to the bit, in any grid; the first
    that fails raises the error it raises alone.  The thresholds it
    takes are those of params.thresholds."""
    return _coverage_analytic(gamma_db, scenario, quad or _DEFAULT_QUAD, "dl")


def coverage_ppp_ul(gamma_db, scenario, quad=None):
    """Uplink coverage probability, as :func:`coverage_ppp_dl` with the
    uplink serving power and the power-controlled serving exponent
    2b(1-k)."""
    return _coverage_analytic(gamma_db, scenario, quad or _DEFAULT_QUAD, "ul")
