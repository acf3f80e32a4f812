"""Hexagonal-lattice geometry, truncated interference sums, and the
macro-cell Monte Carlo simulator.

Sites live at s = delta * (m + n * e^{i pi/3}) for integer (m, n); the
ring index of (m, n) is (|m| + |n| + |m+n|) / 2 and ring n holds exactly
6n sites.  Truncated sums over ``rings`` rings can be completed with a
continuum tail: the lattice has 2/(sqrt(3) delta**2) sites per unit
area, and integrating that density from the area-equivalent radius of
the kept sites onward cancels the leading truncation error.

These brute-force estimators are deliberately independent of the series
evaluators in :mod:`tddgeom.macro_isr` and of the coverage maps in
:mod:`tddgeom.macro_analytic`; the routes are cross-checked against
each other in the test suite.
"""

import math

import numpy as np

from . import rng
from .params import SQRT3, _check_count, _check_real, check_direction, check_gamma_grid, empirical_coverage

__all__ = [
    "lattice_points",
    "lattice_sum",
    "bruteforce_isr_dl",
    "bruteforce_isr_ul_dl",
    "mc_coverage_macro",
    "macro_interference_draws",
]

_E_IPI3 = complex(0.5, 0.5 * SQRT3)  # e^{i pi/3}


def lattice_points(net):
    """Positions of all interfering sites, origin excluded.

    Returns a complex array of the 3 * rings * (rings + 1) sites with
    ring index 1..net.rings, at spacing net.delta.
    """
    idx = np.arange(-net.rings, net.rings + 1)
    m, n = np.meshgrid(idx, idx, indexing="ij")
    ring = (np.abs(m) + np.abs(n) + np.abs(m + n)) // 2
    keep = (ring >= 1) & (ring <= net.rings)
    return net.delta * (m[keep] + n[keep] * _E_IPI3)


def _area_equivalent_radius(net):
    # disk holding as much area as the kept sites' Voronoi cells,
    # origin included: count = 1 + 3 N (N+1), each of area sqrt(3)/2 d^2
    count = 1 + 3 * net.rings * (net.rings + 1)
    return net.delta * math.sqrt(SQRT3 * count / (2.0 * math.pi))


def _tail_integral(net, exponent):
    """Continuum completion of sum |s|**(-exponent) beyond the kept rings."""
    density = 2.0 / (SQRT3 * net.delta**2)
    r_eq = _area_equivalent_radius(net)
    return density * 2.0 * math.pi * r_eq ** (2.0 - exponent) / (exponent - 2.0)


def lattice_sum(net, exponent, tail_correction=True):
    """Sum of (delta / |s|)**exponent over the truncated lattice.

    With ``tail_correction`` the continuum tail beyond the kept rings is
    added, which makes the result converge to 6 * omega(exponent / 2) as
    rings grow.  Requires a finite exponent > 2, where the sum converges.
    """
    _check_real("exponent", exponent, 2.0, math.inf)
    sites = lattice_points(net)
    total = float(np.sum(np.abs(sites) ** (-exponent)))
    if tail_correction:
        total += _tail_integral(net, exponent)
    return total * net.delta**exponent


def bruteforce_isr_dl(m, net, prop, tail_correction=True):
    """Downlink-to-downlink ISR by direct summation over sites.

    For a user at ``m`` served from the origin, returns
    sum over sites of (r / |s - z0|)**two_b, optionally completed with
    the continuum tail.  Power levels cancel: every interfering site
    transmits the same downlink power as the serving one.
    """
    if m.r == 0:
        return 0.0
    z0 = m.position()
    sites = lattice_points(net)
    total = float(np.sum((m.r / np.abs(sites - z0)) ** prop.two_b))
    if tail_correction:
        total += m.r**prop.two_b * _tail_integral(net, prop.two_b)
    return total


# elements (samples x sites) per array in a Monte Carlo sampler, about
# 1 MB, shared between the workers: each worker's workspace holds its
# share, so the memory a sampler holds is about the same for any worker
# count, and no chunk allocates a (samples x sites) array.
_CHUNK = 1 << 17
# samples per summation block of the brute-force ISR
_BLOCK = 64


def _dist2_polar(abs_w, half_arg_w, rho, u, out=None, tmp=None):
    """|w + rho e^{2 pi i u}|^2, for w given by |w| and arg(w) / 2.

    Written as (|w| - rho)^2 + 4 |w| rho cos^2(pi u - arg(w) / 2), so
    one tangent per element replaces the complex exponential, and a
    point near -w loses no more digits than the complex difference
    would.  cos^2 is taken as 1 / (1 + tan^2), a few ulp from the
    cosine's square: on an x86-64 AVX-512 host, numpy 2.4's float64
    tangent takes about 3 ns per element and its cosine about 18 ns.
    Given ``out`` (which may be ``u``) and ``tmp`` (scratch of the
    result's shape, which may be ``half_arg_w``), it allocates nothing."""
    c = np.multiply(u, math.pi, out=out)
    c -= half_arg_w
    np.tan(c, out=c)
    c *= c
    c += 1.0
    np.reciprocal(c, out=c)
    if tmp is None:
        tmp = np.empty_like(c)
    np.multiply(abs_w, 4.0, out=tmp)
    tmp *= rho
    c *= tmp
    np.subtract(abs_w, rho, out=tmp)
    tmp *= tmp
    c += tmp
    return c


class _BruteforceWorkspace:
    """One worker's buffers for chunks of up to ``n`` brute-force
    samples over ``ns`` sites."""

    def __init__(self, seed, n, ns):
        self.streams = rng.Streams(seed)
        # per site, the (rho, phi) uniforms
        self.u = np.empty((n, ns, 2))
        # rho, then the power-control factor; the squared distance, then
        # the site terms; scratch
        self.rho = np.empty((n, ns))
        self.term = np.empty((n, ns))
        self.tmp = np.empty((n, ns))


def bruteforce_isr_ul_dl(m, net, prop, n_samples, seed, tail_correction=True):
    """Uplink-to-downlink ISR: Monte Carlo average over interfering
    mobile positions, one uniform-disk mobile per site.

    Each site s contributes
    (P*/P) * rho**(two_b k) * r**two_b / |s + rho e^{i phi} - z0|**two_b
    averaged over (rho, phi) uniform in the site's user disk.

    Every kept ring is sampled, ``n_samples`` mobiles per site, and the
    continuum tail beyond the kept rings uses the mean power-control
    factor E[rho**(two_b k)] = R**(two_b k) / (b k + 1).

    The samples are one stream, (seed, 0), read as (rho, phi) uniforms
    per site and sample in order.  They are summed in blocks of _BLOCK
    samples: each block's sum and sum of squares, and the blocks' sums
    added in block order.  The workers of :func:`rng.chunk_map` compute
    whole blocks, reading from their own offsets into the stream, so
    the result depends on neither the element budget nor the worker
    count.

    Returns
    -------
    (estimate, stderr) : tuple of float
        stderr covers the sampled part; the tail is deterministic.
    """
    _check_count("n_samples", n_samples, 1)
    rng._check_seed(seed)
    if m.r == 0:
        return 0.0, 0.0
    z0 = m.position()
    scale = prop.p_star_over_p * m.r**prop.two_b
    radius = net.cell_radius
    bk = prop.b * prop.k

    # each mobile's offset from the receiver, before its own displacement
    offset = lattice_points(net) - z0
    abs_w = np.abs(offset)
    half_arg_w = 0.5 * np.angle(offset)
    ns = offset.size
    chunk = max(1, _CHUNK // (rng.workers() * ns * _BLOCK)) * _BLOCK

    def block_sums(start, ws):
        n = min(chunk, n_samples - start)
        # the samples from `start` on: 2 ns doubles per sample, and ns
        # = 3 R (R + 1) is even, so they start at a whole Philox block
        u = ws.u[:n]
        ws.streams.at(0, start * ns // 2).random(out=u)
        rho = np.multiply(u[..., 0], radius * radius, out=ws.rho[:n])
        np.sqrt(rho, out=rho)
        term = _dist2_polar(abs_w, half_arg_w, rho, u[..., 1], ws.term[:n], ws.tmp[:n])
        term **= -prop.b
        # the power-control factor rho**(two_b k), as (rho**2)**(b k)
        factor = np.multiply(u[..., 0], radius * radius, out=rho)
        factor **= bk
        term *= factor
        per_sample = term.sum(axis=1)
        at = np.arange(0, n, _BLOCK)
        return np.add.reduceat(per_sample, at), np.add.reduceat(per_sample**2, at)

    chunks = list(rng.chunk_map(block_sums, range(0, n_samples, chunk),
                                lambda: _BruteforceWorkspace(seed, min(chunk, n_samples), ns)))
    sums, sums_sq = (np.concatenate(parts) for parts in zip(*chunks))
    mean = float(sums.sum()) / n_samples
    var = max(float(sums_sq.sum()) / n_samples - mean**2, 0.0)
    stderr = scale * math.sqrt(var / n_samples)

    tail = 0.0
    if tail_correction:
        tail = radius ** (2.0 * bk) / (bk + 1.0) * _tail_integral(net, prop.two_b)
    estimate = scale * (mean + tail)
    return estimate, stderr


class _MacroWorkspace:
    """One worker's buffers for chunks of up to ``n`` macro draws over
    ``ns`` sites."""

    def __init__(self, seed, n, ns):
        self.streams = rng.Streams(seed)
        self.vals = np.empty((n, 2 + 3 * ns))
        self.is_ul = np.empty((n, ns), dtype=bool)
        # the site terms, and a second grid for the user offsets' y and
        # the downlink/uplink split
        self.term = np.empty((n, ns))
        self.spare = np.empty((n, ns))
        # the uplink sites' indices and values, compacted to the front
        self.at = np.empty(n * ns, dtype=np.intp)
        self.site = np.empty(n * ns, dtype=np.intp)
        self.ul_vals = np.empty((5, n * ns))


def _macro_chunk(const, net, prop, mix, direction, start, n, ws, split):
    """Draws start .. start + n - 1 of the macro simulator, computed in
    the workspace ``ws`` and reduced to per-draw vectors; see
    :func:`_macro_chunks`.  ``const`` holds the per-call site arrays:
    the site coordinates for the downlink, and for the uplink each
    site's |s|, arg(s) / 2 and downlink-site term."""
    ns = ws.term.shape[1]
    radius = net.cell_radius
    b = prop.b
    vals = ws.vals[:n]
    for j in range(n):
        ws.streams.at(start + j).random(out=vals[j])
    r = radius * np.sqrt(vals[:, 0])
    # interferer transmits downlink iff its uniform draw falls below alpha_d
    is_ul = np.greater_equal(vals[:, 2 : 2 + ns], mix.alpha_d, out=ws.is_ul[:n])
    # the uplink sites, as flat (draw, site) indices, and their mobiles'
    # radius uniforms in the flattened row-major vals, at
    # row * (2 + 3 ns) + 2 + ns + site; every index is in range, so the
    # takes clip nothing
    ul = np.flatnonzero(is_ul)
    m = ul.size
    at = np.floor_divide(ul, ns, out=ws.at[:m])
    if direction == "ul":
        site = np.multiply(at, ns, out=ws.site[:m])
        np.subtract(ul, site, out=site)
    at *= 2 + 2 * ns
    at += ul
    at += 2 + ns
    flat = vals.reshape(-1)
    rho2, u_phi, rho, p, q = ws.ul_vals[:, :m]
    np.take(flat, at, out=rho2, mode="clip")
    rho2 *= radius * radius
    at += ns
    np.take(flat, at, out=u_phi, mode="clip")
    np.sqrt(rho2, out=rho)
    # the mobiles' powers, in place of rho2 once rho is taken
    amp = rho2
    amp **= b * prop.k
    amp *= prop.p_star_mw
    term = ws.term[:n]
    if direction == "dl":
        # interference lands on the user: a downlink site's from the
        # cell, an uplink site's from its mobile
        sx, sy = const
        psi = 2.0 * math.pi * vals[:, 1]
        # the user's offsets to each site; dx then becomes the terms
        dx = np.subtract(sx, (r * np.cos(psi))[:, None], out=term)
        dy = np.subtract(sy, (r * np.sin(psi))[:, None], out=ws.spare[:n])
        # an uplink site's mobile is at w + rho e^{2 pi i u} from the
        # user, w = dx + i dy: arg(w) / 2 from the gathered offsets,
        # then |w| from the squared site distances
        half_arg_w = np.take(dx.reshape(-1), ul, out=q, mode="clip")
        np.arctan2(np.take(dy.reshape(-1), ul, out=p, mode="clip"), half_arg_w, out=half_arg_w)
        half_arg_w *= 0.5
        dx *= dx
        dy *= dy
        dx += dy
        abs_w = np.take(dx.reshape(-1), ul, out=p, mode="clip")
        np.sqrt(abs_w, out=abs_w)
        d2 = _dist2_polar(abs_w, half_arg_w, rho, u_phi, u_phi, half_arg_w)
        np.power(term, -b, out=term)
        term *= prop.p_dl_mw
        with np.errstate(divide="ignore"):
            useful = prop.p_dl_mw * r ** (-prop.two_b)
    else:
        # interference lands on the origin site: a downlink site's term
        # is the same in every draw
        abs_s, half_arg_s, dl_term = const
        term[:] = dl_term
        h = np.take(half_arg_s, site, out=q, mode="clip")
        d2 = _dist2_polar(np.take(abs_s, site, out=p, mode="clip"), h, rho, u_phi, u_phi, h)
        with np.errstate(divide="ignore"):
            useful = prop.p_star_mw * r ** (-prop.two_b * (1 - prop.k))
    d2 **= -b
    d2 *= amp
    term.reshape(-1)[ul] = d2
    # each row is summed as it was in a (draws x sites) array of its own
    i_total = term.sum(axis=1)
    if not split:
        return r, useful, i_total
    # the downlink-site and uplink-site parts, as np.where would give them
    part = ws.spare[:n]
    np.copyto(part, term)
    np.copyto(part, 0.0, where=is_ul)
    from_dl = part.sum(axis=1)
    part.fill(0.0)
    np.copyto(part, term, where=is_ul)
    return r, useful, i_total, from_dl, part.sum(axis=1)


def _macro_chunks(net, prop, mix, direction, n_draws, seed, split=False):
    """The macro Monte Carlo, in chunks of draws.

    Per draw: the typical user falls uniformly in the serving disk; each
    interfering site independently transmits downlink with probability
    alpha_d or hosts one uniform-disk uplink mobile under fractional
    power control.  Each site's interference term at the receiver is the
    cell's for a downlink site and its mobile's for an uplink site.
    Yields, per chunk of n draws, vectors of shape (n,): the user radii,
    the useful powers and the interference totals, each draw's terms
    summed site by site; with ``split``, also the downlink-site and the
    uplink-site sums.

    Draw i reads only stream (seed, i), as 2 + 3 * sites uniforms: the
    user radius and angle, then per site the direction flag, the mobile
    radius and the mobile angle.  A row is filled in place from one
    re-positioned Philox, so any chunking reproduces the same numbers.
    The chunks are computed by the workers of :func:`rng.chunk_map` and
    yielded in order, each reduced in its worker's workspace to the
    per-draw vectors, so a consumer may keep every chunk it is given.
    """
    direction = check_direction(direction)
    _check_count("n_draws", n_draws, 1)
    rng._check_seed(seed)
    sites = lattice_points(net)
    chunk = max(1, _CHUNK // (rng.workers() * sites.size))
    # the site arrays that every chunk reads, made once per call
    if direction == "dl":
        const = (sites.real, sites.imag)
    else:
        abs_s = np.abs(sites)
        dl_term = np.power(abs_s * abs_s, -prop.b)
        dl_term *= prop.p_dl_mw
        const = (abs_s, 0.5 * np.angle(sites), dl_term)

    def job(start, ws):
        return _macro_chunk(const, net, prop, mix, direction, start, min(chunk, n_draws - start), ws, split)

    return rng.chunk_map(job, range(0, n_draws, chunk),
                         lambda: _MacroWorkspace(seed, min(chunk, n_draws), sites.size))


def macro_interference_draws(net, prop, mix, direction, n_draws, seed):
    """Per-draw interference decomposition for the macro simulator.

    Returns a dict of arrays of length ``n_draws``: the useful received
    power, the downlink-site and uplink-site interference sums, their
    total summed site by site, and the user radius.  The total and the
    sum of the two parts agree up to summation-order rounding.  Each
    sum is formed in the worker that computed its chunk.  Draw i
    consumes only stream (seed, i), so any chunking of a larger run
    reproduces these numbers exactly.
    """
    chunks = list(_macro_chunks(net, prop, mix, direction, n_draws, seed, split=True))
    r, useful, i_total, from_dl, from_ul = (np.concatenate(parts) for parts in zip(*chunks))
    return {"useful": useful, "from_dl_sites": from_dl, "from_ul_sites": from_ul, "i_total": i_total, "r_user": r}


def mc_coverage_macro(net, prop, mix, direction, gamma_grid_db, n_draws, seed):
    """Empirical SINR CCDF for the hexagonal macro model, with 95%
    binomial half-widths.

    The draws are those of :func:`macro_interference_draws`.  The
    average-load factor scales the interference sum, matching the
    analytic model's use of it.  A SINR tie or NaN is not covered and
    +inf, a silent field with no noise, is.  The chunks are counted one
    at a time, in O(chunk draws + thresholds) memory.  Results are
    bit-identical for a given (seed, n_draws) under any chunking or
    worker count.
    """
    grid = check_gamma_grid(gamma_grid_db)
    chunks = _macro_chunks(net, prop, mix, direction, n_draws, seed)
    sinrs = (_sinr(useful, net.load_eta * i_total + prop.p_noise_mw) for _, useful, i_total in chunks)
    return empirical_coverage(grid, sinrs, n_draws)


def _sinr(useful, noise_and_interference):
    """useful / noise_and_interference without a warning: +inf over a
    silent field with no noise, NaN where the useful power is 0 too."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return useful / noise_and_interference
