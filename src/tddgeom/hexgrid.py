"""Hexagonal-lattice geometry, truncated interference sums, and the
macro-cell Monte Carlo simulator.

Sites live at s = delta * (m + n * e^{i pi/3}) for integer (m, n); the
ring index of (m, n) is (|m| + |n| + |m+n|) / 2 and ring n holds exactly
6n sites.  Truncated sums over ``rings`` rings can be completed with a
continuum tail: the lattice has 2/(sqrt(3) delta**2) sites per unit
area, and integrating that density from the area-equivalent radius of
the kept sites onward cancels the leading truncation error.

These brute-force estimators are deliberately independent of the series
evaluators in :mod:`tddgeom.macro_analytic`; the two are cross-checked
against each other in the test suite.
"""

import math

import numpy as np

from . import rng
from .params import (
    SQRT3,
    CoverageCurve,
    MacroNetwork,
    MobilePolar,
    PropagationParams,
    TddMix,
    check_direction,
    check_gamma_grid,
)

__all__ = [
    "lattice_points",
    "lattice_sum",
    "bruteforce_isr_dl",
    "bruteforce_isr_ul_dl",
    "mc_coverage_macro",
    "macro_interference_draws",
]

_E_IPI3 = complex(0.5, 0.5 * SQRT3)  # e^{i pi/3}


def _lattice_mn(rings):
    """Integer lattice coordinates and ring indices for rings 1..rings."""
    idx = np.arange(-rings, rings + 1)
    m, n = np.meshgrid(idx, idx, indexing="ij")
    ring = (np.abs(m) + np.abs(n) + np.abs(m + n)) // 2
    keep = (ring >= 1) & (ring <= rings)
    return m[keep], n[keep], ring[keep]


def lattice_points(net):
    """Positions of all interfering sites, origin excluded.

    Returns a complex array of the 3 * rings * (rings + 1) sites with
    ring index 1..net.rings, at spacing net.delta.
    """
    m, n, _ = _lattice_mn(net.rings)
    return net.delta * (m + n * _E_IPI3)


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
    rings grow.  Requires exponent > 2.
    """
    if exponent <= 2:
        raise ValueError(f"lattice sum diverges for exponent <= 2, got {exponent}")
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


def _disk_average_quadrature(sites, z0, net, prop, n_radial=16, n_angular=24):
    """Per-site disk average of the uplink interferer kernel, by tensor
    Gauss-Legendre (radial, as sqrt of a uniform variable) x midpoint
    (angular) quadrature.  Only valid when no site's user disk can touch
    z0; the far rings used here satisfy that by a wide margin."""
    radius = net.cell_radius
    u_nodes, u_weights = np.polynomial.legendre.leggauss(n_radial)
    u = 0.5 * (u_nodes + 1.0)
    w = 0.5 * u_weights
    phi = (np.arange(n_angular) + 0.5) * (2.0 * math.pi / n_angular)
    rho = radius * np.sqrt(u)
    pos = sites[:, None, None] + rho[None, :, None] * np.exp(1j * phi[None, None, :])
    kern = rho[None, :, None] ** (prop.two_b * prop.k) * np.abs(pos - z0) ** (-prop.two_b)
    return float(np.sum(kern.mean(axis=2) * w[None, :]))


def bruteforce_isr_ul_dl(m, net, prop, n_samples, seed, mc_rings=8, tail_correction=True):
    """Uplink-to-downlink ISR: Monte Carlo average over interfering
    mobile positions, one uniform-disk mobile per site.

    Each site s contributes
    (P*/P) * rho**(two_b k) * r**two_b / |s + rho e^{i phi} - z0|**two_b
    averaged over (rho, phi) uniform in the site's user disk.

    The estimator splits the lattice: sites with ring index up to
    ``mc_rings`` are sampled (``n_samples`` mobiles per site), farther
    kept rings are disk-averaged by deterministic quadrature (their
    variance contribution is negligible), and the continuum tail beyond
    the kept rings uses the mean power-control factor
    E[rho**(two_b k)] = R**(two_b k) / (b k + 1).  Pass ``mc_rings=None``
    to sample every kept ring instead.

    Returns
    -------
    (estimate, stderr) : tuple of float
        stderr covers the sampled part.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    if m.r == 0:
        return 0.0, 0.0
    z0 = m.position()
    mm, nn, ring = _lattice_mn(net.rings)
    sites = net.delta * (mm + nn * _E_IPI3)
    if mc_rings is None:
        near = np.ones(sites.size, dtype=bool)
    else:
        near = ring <= mc_rings
    scale = prop.p_star_over_p * m.r**prop.two_b
    radius = net.cell_radius
    bk = prop.b * prop.k

    gen = rng.stream(seed, 0)
    near_sites = sites[near]
    chunk = max(1, int(2.0e6 / max(near_sites.size, 1)))
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < n_samples:
        cn = min(chunk, n_samples - done)
        u = gen.random((cn, near_sites.size, 2))
        rho = radius * np.sqrt(u[..., 0])
        pos = near_sites[None, :] + rho * np.exp(2j * math.pi * u[..., 1])
        per_draw = np.sum(rho ** (2.0 * bk) * np.abs(pos - z0) ** (-prop.two_b), axis=1)
        total += float(per_draw.sum())
        total_sq += float((per_draw**2).sum())
        done += cn
    mean_near = total / n_samples
    var_near = max(total_sq / n_samples - mean_near**2, 0.0)
    stderr = scale * math.sqrt(var_near / n_samples)

    far_part = 0.0
    if not near.all():
        far_part = _disk_average_quadrature(sites[~near], z0, net, prop)
    tail = 0.0
    if tail_correction:
        tail = radius ** (2.0 * bk) / (bk + 1.0) * _tail_integral(net, prop.two_b)
    estimate = scale * (mean_near + far_part + tail)
    return estimate, stderr


def _macro_chunk(sites, net, prop, mix, direction, seed, start, n):
    """Draws start .. start + n - 1 of the macro simulator; see
    :func:`_macro_chunks`."""
    ns = sites.size
    radius = net.cell_radius
    two_b = prop.two_b
    vals = np.empty((n, 2 + 3 * ns))
    for j in range(n):
        vals[j] = rng.stream(seed, start + j).random(2 + 3 * ns)
    r = radius * np.sqrt(vals[:, 0])
    # interferer transmits downlink iff its uniform draw falls below alpha_d
    is_dl = vals[:, 2 : 2 + ns] < mix.alpha_d
    rho = radius * np.sqrt(vals[:, 2 + ns : 2 + 2 * ns])
    phi = 2.0 * math.pi * vals[:, 2 + 2 * ns :]
    # interference lands on the user (downlink) or on the origin site (uplink)
    target = (r * np.exp(2j * math.pi * vals[:, 1]))[:, None] if direction == "dl" else 0.0
    del vals  # the uniforms are spent; free them before the complex arrays
    mobiles = sites[None, :] + rho * np.exp(1j * phi)
    del phi
    cell_term = prop.p_dl_mw * np.abs(sites[None, :] - target) ** (-two_b)
    mobile_term = prop.p_star_mw * rho ** (2 * prop.b * prop.k) * np.abs(mobiles - target) ** (-two_b)
    with np.errstate(divide="ignore"):
        if direction == "dl":
            useful = prop.p_dl_mw * r ** (-two_b)
        else:
            useful = prop.p_star_mw * r ** (-two_b * (1 - prop.k))
    return r, useful, is_dl, cell_term, mobile_term


def _macro_chunks(net, prop, mix, direction, n_draws, seed):
    """The macro Monte Carlo, in chunks of draws.

    Per draw: the typical user falls uniformly in the serving disk; each
    interfering site independently transmits downlink with probability
    alpha_d or hosts one uniform-disk uplink mobile under fractional
    power control.  Yields, per chunk of n draws, the user radii and the
    useful powers (shape (n,)), the downlink flags and the mobile terms
    (shape (n, sites)), and the cell terms (shape (n, sites), or
    (1, sites) for uplink, where they do not depend on the draw).

    Draw i consumes only stream (seed, i), so any chunking reproduces
    the same numbers.  A chunk is built from about 4e6 uniforms, and a
    consumer drops its references to one chunk before asking for the
    next, so that two are never held at once.
    """
    direction = check_direction(direction)
    if n_draws < 1:
        raise ValueError(f"n_draws must be at least 1, got {n_draws}")
    sites = lattice_points(net)
    chunk = max(1, int(4.0e6 / (3 * sites.size)))
    for start in range(0, n_draws, chunk):
        yield _macro_chunk(sites, net, prop, mix, direction, seed, start, min(chunk, n_draws - start))


def macro_interference_draws(net, prop, mix, direction, n_draws, seed):
    """Per-draw interference decomposition for the macro simulator.

    Returns a dict of arrays of length ``n_draws``: the useful received
    power, the downlink-site and uplink-site interference sums (computed
    separately by boolean masking), a fused total computed site-by-site
    in one where-pass, and the user radius.  The fused total and the sum
    of the two parts agree up to summation-order rounding.  Draw i
    consumes only stream (seed, i), so any chunking of a larger run
    reproduces these numbers exactly.
    """
    out = {key: [] for key in ("useful", "from_dl_sites", "from_ul_sites", "i_total", "r_user")}
    for r, useful, is_dl, cell_term, mobile_term in _macro_chunks(net, prop, mix, direction, n_draws, seed):
        cell_term = np.broadcast_to(cell_term, is_dl.shape)
        out["useful"].append(useful)
        out["from_dl_sites"].append([row[on].sum() for row, on in zip(cell_term, is_dl)])
        out["from_ul_sites"].append([row[~on].sum() for row, on in zip(mobile_term, is_dl)])
        out["i_total"].append(np.where(is_dl, cell_term, mobile_term).sum(axis=1))
        out["r_user"].append(r)
        del r, useful, is_dl, cell_term, mobile_term  # release the chunk before the next is built
    return {key: np.concatenate(parts) for key, parts in out.items()}


def mc_coverage_macro(net, prop, mix, direction, gamma_grid_db, n_draws, seed):
    """Empirical SINR CCDF for the hexagonal macro model.

    The draws are those of :func:`macro_interference_draws`.  The
    average-load factor scales the interference sum, matching the
    analytic model's use of it.  Results are bit-identical for a given
    (seed, n_draws) under any chunking.
    """
    grid = check_gamma_grid(gamma_grid_db)
    gamma_lin = 10.0 ** (grid / 10.0)
    counts = np.zeros(grid.size, dtype=np.int64)
    for _, useful, is_dl, cell_term, mobile_term in _macro_chunks(net, prop, mix, direction, n_draws, seed):
        interference = np.where(is_dl, cell_term, mobile_term).sum(axis=1)
        sinr = useful / (net.load_eta * interference + prop.p_noise_mw)
        counts += (sinr[:, None] > gamma_lin[None, :]).sum(axis=0)
        del useful, is_dl, cell_term, mobile_term  # release the chunk before the next is built
    value = counts / n_draws
    half = 1.96 * np.sqrt(np.maximum(value * (1.0 - value), 0.0) / n_draws)
    return CoverageCurve(grid, value, half)
