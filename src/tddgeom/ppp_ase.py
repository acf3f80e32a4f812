"""Average spectral efficiency of the small-cell tier as one double
integral.

By Hamdi's lemma ("A useful lemma for capacity analysis of fading
interference channels", IEEE Trans. Commun. 2010), a Rayleigh serving
fade of mean S turns E[ln(1 + S h / (I + N))] into one integral over
the interference Laplace transform, so the ASE needs no coverage value
and no threshold.  The transform is :func:`tddgeom.ppp_model._laplace`,
with its own tolerance and refinement, and the serving distance takes
its graded Rayleigh rule, :func:`tddgeom.ppp_model._rayleigh_rule`.
The Monte Carlo counterpart, the mean of log2(1 + SINR) over the draws
of :func:`tddgeom.ppp_sampler.mc_sinr_ppp` with its standard error, is
:func:`tddgeom.ppp_sampler._spectral_efficiency`, which both the runner
and the acceptance criteria take.
"""

import math

import numpy as np

from .errors import IntegrationError
from .params import check_direction
from .ppp_model import _DEFAULT_QUAD, _laplace, _rayleigh_rule, _serving_link
from .quadrules import gauss_kronrod_unit, refine

__all__ = ["ase"]

# the coarse order of each of the two nested pairs of a
# spectral-efficiency row (see _ase_rows)
_ASE_NODES = 8


def _ase_rows(r, s_mean, a_scale, scenario, quad):
    """The inner integrals int_0^inf e^{-vN} L_I(v, r_i) dg of :func:`ase`
    at the serving distances r (1-D), with g = ln(1 + v s_mean_i) and
    a_scale_i = s_mean_i v_s(r_i) the scale of v s_mean.

    Each row splits at g_s = ln(1 + a_scale): [0, g_s] is linear in g,
    and beyond it v = v_s y^b with y = 1 + 2 s / (1 - s).  The exponent
    vN - ln L_I grows like v at small v and like v^{1/b} at large v, so
    in y it grows at least like y, whether the row is noise- or
    interference-limited, at high SINR or at low: in g alone a low-SINR
    row would keep a stretched-exponential tail.  Both parts take the
    nested pair of coarse order _ASE_NODES, and each row is refined on
    its own to ase_rel_tol of its value (:func:`tddgeom.quadrules.refine`);
    each level sends the nodes of all its rows to :func:`_laplace` in one
    call, which forms e^{-vN} L_I by its one rule: a node whose noise
    factor is 0 gives 0, and v = +inf takes its limit.  Returns each
    row's K, in nats; the first row that still fails raises the
    integration error of refine, with its own K and |K - G|."""
    b = scenario.prop.b

    def estimate(level, todo):
        s, w = gauss_kronrod_unit(_ASE_NODES << level)
        a, sm = a_scale[todo, None], s_mean[todo, None]
        g_s = np.log1p(a)
        y = 1.0 + 2.0 * s / (1.0 - s)
        ay = a * y**b
        v = np.concatenate((np.expm1(g_s * s) / sm, ay / sm), axis=1)
        # dg = dy a b y^{b-1} / (1 + a y^b), and dy = 2 ds / (1 - s)^2
        jac = np.concatenate(
            (np.broadcast_to(g_s, ay.shape), 2.0 / (1.0 - s) ** 2 * b * ay / (y * (1.0 + ay))),
            axis=1,
        )
        val = _laplace(v.ravel(), np.broadcast_to(r[todo, None], v.shape).ravel(), scenario, quad,
                       scenario.p_noise_mw).reshape(v.shape)
        return ((val * jac) @ np.concatenate((w, w), axis=1).T).T

    return refine(estimate, r.size, lambda fine: quad.ase_rel_tol * fine, quad.max_refinements,
                  lambda i: f"spectral-efficiency row at r={r[i]} not converged to {quad.ase_rel_tol} of its value")


def ase(scenario, direction, quad=None):
    """Average spectral efficiency E[log2(1 + SINR)] in bits/s/Hz.

    By Hamdi's lemma ("A useful lemma for capacity analysis of fading
    interference channels", IEEE Trans. Commun. 2010), with the Rayleigh
    serving fade of mean S(r) = P r^{-e} (e = 2b downlink, 2b(1 - k)
    uplink),

        E[ln(1 + SINR) | r] = int_0^inf e^{-vN} L_I(v, r) S / (1 + v S) dv
                            = int_0^inf e^{-vN} L_I(v, r) dg,

    with g = ln(1 + v S).  The outer integral over r takes the graded
    Rayleigh rule of the coverage (graded at r -> 0 against the
    logarithmic growth of the row there) of coarse order n_serving.
    Neither rule depends on a threshold: each
    row's g rule (see _ase_rows) is scaled by v_s = 1 / (N + I_s), where
    I_s is the mean interference from beyond max(r, rho_scale) of cells
    that transmit the alpha-weighted downlink and uplink powers
    alpha_d P + alpha_u P* rho_scale^{2bk}.

    Each row and the r rule are refined by :func:`tddgeom.quadrules.refine`
    to ase_rel_tol: a row relative to its value, the r rule relative to
    the total.  When either still fails, refine raises an integration
    error with the K and |K - G| of the integral that failed: a row's in
    nats, the r rule's in bits/s/Hz.  Each Laplace value meets
    inner_abs_tol.
    """
    quad = quad or _DEFAULT_QUAD
    direction = check_direction(direction)
    p_serv, exp_serving = _serving_link(scenario, direction)
    if p_serv == 0.0:
        return 0.0  # a silent serving link: the SINR is 0
    prop = scenario.prop
    b = prop.b
    mix = scenario.mix
    rho_s = scenario.rho_scale
    power = mix.alpha_d * scenario.p_small_mw + mix.alpha_u * scenario.p_small_star_mw * rho_s ** (
        2.0 * b * prop.k
    )
    if power == 0.0 and scenario.p_noise_mw == 0.0:
        raise IntegrationError(
            "spectral efficiency is infinite: no noise and no interference", achieved=math.inf
        )

    def estimate(level, todo):
        r, w = _rayleigh_rule(quad.n_serving << level, scenario.lam)
        d = np.maximum(r, rho_s)
        i_scale = power * d ** (-2.0 * b) * (d / rho_s) ** 2 / (b - 1.0)
        s_mean = p_serv * r ** (-exp_serving)
        rows = _ase_rows(r, s_mean, s_mean / (scenario.p_noise_mw + i_scale), scenario, quad)
        return (w @ rows / math.log(2.0))[:, None]

    (value,) = refine(estimate, 1, lambda fine: quad.ase_rel_tol * fine, quad.max_refinements,
                      lambda i: f"spectral-efficiency integral not converged to {quad.ase_rel_tol} of its value")
    return float(value)
