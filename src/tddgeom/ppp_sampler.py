"""Small-cell tier: Poisson deployment sampling and the Monte Carlo
SINR, the route that checks the Laplace-transform coverage of
:mod:`tddgeom.ppp_model`.

The sampler draws the model that module describes, the Rayleigh
serving distance with its exclusion ball included, and its transforms
integrate that same model exactly, so the two routes are comparable to
Monte Carlo error.  A diagnostic nearest-cell association mode
quantifies what the approximation leaves out.

The draws come in chunks of a fixed number of draws, each reading its
own stream of :mod:`tddgeom.rng`, so they do not depend on the worker
count, and a run of n draws is a prefix of any longer run.
"""

import math

import numpy as np

from . import rng
from .hexgrid import _dist2_polar, _sinr
from .params import _check_count, _check_real, check_direction, check_gamma_grid, empirical_coverage
from .ppp_model import _serving_link

__all__ = [
    "mc_sinr_ppp",
    "ppp_interference_draws",
    "mc_coverage_ppp",
    "mc_laplace_ppp",
]

# draws per chunk of the Monte Carlo sampler.  Chunk c holds draws
# [c C, (c + 1) C) and reads only stream (seed, c), so this constant
# fixes the seeded draws.  At the default window a chunk holds about
# 40k pairs, whose arithmetic takes about 5 MB in its worker.
_CHUNK_DRAWS = 512
# counter blocks between the starts of two kinds of pair number in a
# chunk's stream: room for 2**38 numbers of each kind
_KIND_BLOCKS = 1 << 36


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
    rng._check_seed(seed)
    if association not in ("rayleigh", "nearest"):
        raise ValueError(f"association must be 'rayleigh' or 'nearest', got {association!r}")

    def job(c, streams):
        size = min(_CHUNK_DRAWS, n_draws - c * _CHUNK_DRAWS)
        return _sample_chunk(scenario, direction, association == "nearest", serving_r, streams, c, size)

    chunks = list(rng.chunk_map(job, range(-(-n_draws // _CHUNK_DRAWS)), lambda: rng.Streams(seed)))
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
    p_serv, exp_serving = _serving_link(scenario, direction)
    # a serving distance of 0, which mc_laplace_ppp may ask for, gives
    # +inf useful power
    with np.errstate(divide="ignore", invalid="ignore"):
        useful = p_serv * serving_fade * r ** (-exp_serving)
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
    return _sinr(useful, from_dl + from_ul + scenario.p_noise_mw)


def _spectral_efficiency(scenario, direction, n_draws, seed):
    """The Monte Carlo spectral efficiency, the mean of log2(1 + SINR)
    over the draws of :func:`mc_sinr_ppp`; returns (mean, standard
    error)."""
    eff = np.log2(1.0 + mc_sinr_ppp(scenario, direction, n_draws, seed))
    return float(eff.mean()), float(eff.std(ddof=1)) / math.sqrt(eff.size)


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
    _check_real("v", v, 0.0, math.inf, "[)")
    _check_real("r", r, 0.0, math.inf, "[)")
    _, from_dl, from_ul, _ = _sample(scenario, direction, n_draws, seed, serving_r=r)
    val = np.exp(-v * (from_dl + from_ul))
    # the two-pass deviation: E[val^2] - mean^2 cancels to 0 where val
    # is near 1
    return float(val.sum()) / n_draws, float(val.std()) / math.sqrt(n_draws)
