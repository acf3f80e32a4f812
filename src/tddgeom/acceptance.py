"""The twelve acceptance criteria, run by both the test suite and
``tddgeom validate``.

Each criterion returns its detail text, with the achieved numbers next
to the required bounds, and whether it passed; ``Criterion.run`` turns
that into the verdict line.  Failing checks fail loudly; nothing is
rounded toward success.
"""

import math
import os
import tempfile
import time
from typing import Callable, NamedTuple

import numpy as np

from .config import FAST_QUAD, config_from_dict, run
from .hexgrid import bruteforce_isr_ul_dl, lattice_sum, macro_interference_draws, mc_coverage_macro
from .macro_analytic import (
    a1, beta_h, coverage_macro, downlink_inverse_sinr, inv_d, inv_u, isr_ul_dl,
    uplink_inverse_sinr,
)
from .params import MacroNetwork, MobilePolar, PropagationParams, TddMix, thresholds
from .ppp_ase import ase
from .ppp_model import (
    QuadratureControl, SmallCellScenario, coverage_ppp_dl, coverage_ppp_ul, mc_coverage_ppp,
    mc_laplace_ppp, mc_sinr_ppp, ppp_interference_draws,
)
from .specfun import SeriesControl, omega


class Criterion(NamedTuple):
    """One acceptance criterion.  ``quick`` marks the method checks that
    ``validate(quick=True)`` runs; ``check`` returns (detail, passed)."""

    number: int
    name: str
    quick: bool
    check: Callable[[], tuple]

    def run(self):
        """Run the check; returns (verdict line, passed)."""
        detail, passed = self.check()
        verdict = "PASS" if passed else "FAIL"
        return f"criterion {self.number:02d} {self.name}: {detail} -> {verdict}", passed


def _lattice_sum_identity():
    start = time.perf_counter()
    net = MacroNetwork(rings=500)
    rels = {}
    for two_b in (3.5, 2.5):
        total = lattice_sum(net, two_b)
        target = 6.0 * omega(two_b / 2.0)
        rels[two_b] = abs(total - target) / target
    elapsed = time.perf_counter() - start
    ok = rels[3.5] <= 1e-6 and rels[2.5] <= 1e-3 and elapsed < 5.0
    return (
        f"rel {rels[3.5]:.3e} (2b=3.5, req<=1e-6), {rels[2.5]:.3e} (2b=2.5, req<=1e-3), "
        f"{elapsed:.1f}s (req<5s)", ok,
    )


def _edge_interference_identity():
    start = time.perf_counter()
    worst = 0.0
    for b in (1.25, 1.75):
        for k in (0.0, 0.4, 1.0):
            for xr in (0.3, 1.0 / math.sqrt(3.0)):
                lhs = 6.0 * xr ** (2.0 * b * k) * beta_h(0, b, k, xr)
                rhs = a1(b, k, xr)
                worst = max(worst, abs(lhs - rhs) / rhs)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 1.0
    return f"worst rel {worst:.3e} (req<=1e-10), {elapsed:.2f}s (req<1s)", ok


def _series_vs_positional_integral():
    start = time.perf_counter()
    prop = PropagationParams()
    net = MacroNetwork()
    series = isr_ul_dl(
        0.4, prop.b, prop.k, net.cell_radius / net.delta, prop.p_star_over_p,
        SeriesControl(max_terms=600),
    )
    # the positional sum carries a six-fold angular harmonic that the
    # circularized series averages away, so stratify over angles
    n_angles = 24
    per_angle = 1_000_000 // n_angles
    estimates = np.empty(n_angles)
    variances = np.empty(n_angles)
    for i, theta in enumerate(np.arange(n_angles) * (2.0 * math.pi / n_angles)):
        est, se = bruteforce_isr_ul_dl(
            MobilePolar(0.4, theta), net, prop, n_samples=per_angle, seed=1000 + i)
        estimates[i] = est
        variances[i] = se * se
    mc = float(estimates.mean())
    se = math.sqrt(float(variances.sum())) / n_angles
    sigma = abs(mc - series) / se
    elapsed = time.perf_counter() - start
    ok = sigma <= 3.0 and elapsed < 30.0
    return (
        f"series {series:.6e} vs mc {mc:.6e}, {sigma:.2f} se (req<=3), "
        f"{elapsed:.1f}s (req<30s)", ok,
    )


def _inverse_round_trips():
    net = MacroNetwork()
    prop = PropagationParams()
    mix = TddMix(alpha_d=0.5)
    xs = np.arange(0.05, 0.551, 0.05)

    worst_u = 0.0
    for x in xs:
        y = uplink_inverse_sinr(x, net, prop, mix)
        worst_u = max(worst_u, abs(inv_u(y, net, prop, mix) - x) / x)

    worst_d = 0.0
    worst_series_05 = 0.0
    worst_series_04 = 0.0
    for x in xs:
        y = downlink_inverse_sinr(x, net, prop, mix)
        x_exact = inv_d(y, net, prop, mix)
        resid = abs(downlink_inverse_sinr(x_exact, net, prop, mix) - y) / y
        worst_d = max(worst_d, resid)
        if x <= 0.5 + 1e-12:
            dev = abs(inv_d(y, net, prop, mix, method="series") - x_exact) / x_exact
            worst_series_05 = max(worst_series_05, dev)
            if x <= 0.4 + 1e-12:
                worst_series_04 = max(worst_series_04, dev)

    # the series inverse misses the exact root by up to ~4.4% at mid-cell, so
    # the recorded tolerance is 5% out to x = 0.5 (2% holds to x = 0.4)
    ok = worst_u <= 1e-12 and worst_d <= 1e-10 and worst_series_05 <= 0.05 and worst_series_04 <= 0.02
    return (
        f"uplink {worst_u:.2e} (req<=1e-12), exact-inverse residual {worst_d:.2e} (req<=1e-10), "
        f"series dev {worst_series_05 * 100:.2f}% x<=0.5 (req<=5%), "
        f"{worst_series_04 * 100:.2f}% x<=0.4 (req<=2%)", ok,
    )


def _macro_analytic_vs_mc_coverage():
    start = time.perf_counter()
    net = MacroNetwork(rings=30)
    prop = PropagationParams()
    grid = np.arange(-30.0, 30.1, 5.0)
    gaps = {}
    for alpha_d, direction in ((1.0, "dl"), (0.5, "dl"), (0.5, "ul")):
        mix = TddMix(alpha_d=alpha_d)
        analytic = coverage_macro(grid, direction, net, prop, mix)
        curve = mc_coverage_macro(net, prop, mix, direction, grid, 20000, seed=13)
        gaps[(alpha_d, direction)] = float(np.max(np.abs(analytic - curve.value)))
    elapsed = time.perf_counter() - start
    ok = all(v <= 0.03 for v in gaps.values()) and elapsed < 120.0
    detail = ", ".join(
        f"({a},{d}) sup gap {v:.4f}" for (a, d), v in gaps.items()
    )
    return f"{detail} (req<=0.03 each), {elapsed:.0f}s (req<2min)", ok


def _uplink_degradation_without_power_control():
    net = MacroNetwork(rings=4)
    prop = PropagationParams(two_b=3.5, k=0.0)
    grid = np.array([-20.0])
    pure = mc_coverage_macro(net, prop, TddMix(alpha_d=0.0), "ul", grid, 100000, seed=7)
    mixed = mc_coverage_macro(net, prop, TddMix(alpha_d=0.5), "ul", grid, 100000, seed=7)
    drop = 100.0 * (pure.value[0] - mixed.value[0])
    ana = 100.0 * (
        coverage_macro(-20.0, "ul", net, prop, TddMix(alpha_d=0.0))
        - coverage_macro(-20.0, "ul", net, prop, TddMix(alpha_d=0.5))
    )
    ok = 70.0 <= drop <= 90.0
    return f"drop {drop:.1f} points at -20 dB (req in [70, 90]; analytic lattice limit {ana:.1f})", ok


def _fractional_power_control_trends():
    net = MacroNetwork()
    prop_by_k = {k: PropagationParams(k=k) for k in (0.0, 0.4, 0.8, 1.0)}
    mix = TddMix(alpha_d=0.5)
    grid = np.arange(-20.0, 10.1, 2.5)

    dl = {k: coverage_macro(grid, "dl", net, p, mix) for k, p in prop_by_k.items()}
    stacked = np.stack(list(dl.values()))
    worst_spread = float(np.max(stacked.max(axis=0) - stacked.min(axis=0)))

    ul = {k: coverage_macro(grid, "ul", net, p, mix) for k, p in prop_by_k.items()}
    ks = sorted(ul)
    monotone = all(
        np.all(ul[k_lo] > ul[k_hi])
        for k_lo, k_hi in zip(ks, ks[1:])
    )
    ok = worst_spread <= 0.01 and monotone
    return (
        f"downlink spread {worst_spread * 100:.3f} points (req<=1), "
        f"uplink strictly decreasing in k: {monotone}", ok,
    )


def _ppp_analytic_vs_mc_coverage():
    start = time.perf_counter()
    sc = SmallCellScenario(lam=10.0, mix=TddMix(alpha_d=0.5))
    grid = np.arange(-20.0, 20.1, 5.0)
    gaps = {}
    for direction, fn in (("dl", coverage_ppp_dl), ("ul", coverage_ppp_ul)):
        analytic = fn(grid, sc)
        curve = mc_coverage_ppp(sc, direction, grid, 100000, seed=17)
        gaps[direction] = float(np.max(np.abs(analytic - curve.value)))
    elapsed = time.perf_counter() - start
    ok = all(v <= 0.05 for v in gaps.values()) and elapsed < 300.0
    return (
        f"sup gap dl {gaps['dl']:.4f}, ul {gaps['ul']:.4f} (req<=0.05), "
        f"{elapsed:.0f}s (req<5min)", ok,
    )


def _closed_form_anchor():
    sc = SmallCellScenario(
        lam=10.0,
        prop=PropagationParams(two_b=4.0, p_noise_dbm=-math.inf),
        mix=TddMix(alpha_d=1.0),
    )
    grid = np.array([0.0, 5.0])
    rg = np.sqrt(thresholds(grid)[0])
    closed = 1.0 / (1.0 + rg * (math.pi / 2.0 - np.arctan(1.0 / rg)))
    worst = float(np.max(np.abs(coverage_ppp_dl(grid, sc) - closed)))
    ok = worst <= 0.01
    return f"worst abs diff {worst:.2e} at 0/5 dB (req<=0.01)", ok


def _small_cell_mixing_gain_by_environment():
    gamma_db = -10.0
    gains = {}
    for env, a_db in (("outdoor", 130.0), ("indoor", 160.0)):
        prop = PropagationParams(a_db=a_db)
        static = coverage_ppp_dl(gamma_db, SmallCellScenario(lam=10.0, prop=prop, mix=TddMix(alpha_d=1.0)))
        dynamic = coverage_ppp_dl(gamma_db, SmallCellScenario(lam=10.0, prop=prop, mix=TddMix(alpha_d=0.5)))
        gains[env] = 100.0 * (dynamic - static)
    ok = (10.0 <= gains["outdoor"] <= 20.0) and abs(gains["indoor"]) < 3.0
    return (
        f"outdoor gain {gains['outdoor']:.2f} points (req in [10, 20]), "
        f"indoor gap {gains['indoor']:.2f} points (req<3)", ok,
    )


def _spectral_efficiency_trends():
    quad = QuadratureControl(**FAST_QUAD)

    def scenario(lam, alpha_d, window=None):
        return SmallCellScenario(lam=lam, window_radius=window, mix=TddMix(alpha_d=alpha_d))

    dl_gains = {}
    for lam in (5.0, 10.0, 50.0):
        dyn = ase(scenario(lam, 0.5), "dl", quad)
        sta = ase(scenario(lam, 1.0), "dl", quad)
        dl_gains[lam] = dyn - sta

    ul_vals = [ase(scenario(lam, 0.5), "ul", quad) for lam in (5.0, 10.0, 20.0, 50.0)]
    ul_decreasing = all(a > b for a, b in zip(ul_vals, ul_vals[1:]))

    # window wide enough that truncation sits below the sampling error
    sigmas = {}
    for direction in ("dl", "ul"):
        sc = scenario(10.0, 0.5, window=3.0)
        eff = np.log2(1.0 + mc_sinr_ppp(sc, direction, 20000, seed=21))
        se = float(eff.std(ddof=1)) / math.sqrt(eff.size)
        sigmas[direction] = abs(ase(sc, direction, quad) - float(eff.mean())) / se

    ok = (
        all(v > 0.0 for v in dl_gains.values())
        and ul_decreasing
        and all(s <= 3.0 for s in sigmas.values())
    )
    gains_text = ", ".join(f"{g:+.3f}@{lam:g}" for lam, g in dl_gains.items())
    return (
        f"downlink mixing gain {gains_text} bit/s/Hz (req>0), uplink decreasing {ul_decreasing}, "
        f"mc agreement {sigmas['dl']:.2f}/{sigmas['ul']:.2f} se (req<=3)", ok,
    )


def _determinism():
    net = MacroNetwork(rings=2)
    prop = PropagationParams()
    mix = TddMix(alpha_d=0.5)
    sc = SmallCellScenario(lam=10.0, mix=mix)
    grid = np.array([-10.0, 0.0, 10.0])
    same = True

    same &= bruteforce_isr_ul_dl(MobilePolar(0.3, 0.1), net, prop, 300, seed=3) == \
        bruteforce_isr_ul_dl(MobilePolar(0.3, 0.1), net, prop, 300, seed=3)

    a = mc_coverage_macro(net, prop, mix, "dl", grid, 300, seed=4)
    b = mc_coverage_macro(net, prop, mix, "dl", grid, 300, seed=4)
    same &= np.array_equal(a.value, b.value)

    # streams per draw (macro) and per chunk of draws (PPP) make a short
    # run the prefix of a longer one
    short = macro_interference_draws(net, prop, mix, "ul", 6, seed=5)
    long = macro_interference_draws(net, prop, mix, "ul", 20, seed=5)
    same &= all(np.array_equal(short[k], long[k][:6]) for k in short)
    p_short = ppp_interference_draws(sc, "dl", 6, seed=5)
    p_long = ppp_interference_draws(sc, "dl", 20, seed=5)
    same &= all(np.array_equal(p_short[k], p_long[k][:6]) for k in p_short)

    for assoc in ("rayleigh", "nearest"):
        same &= np.array_equal(
            mc_sinr_ppp(sc, "ul", 200, seed=6, association=assoc),
            mc_sinr_ppp(sc, "ul", 200, seed=6, association=assoc),
        )
    c = mc_coverage_ppp(sc, "dl", grid, 200, seed=7)
    d = mc_coverage_ppp(sc, "dl", grid, 200, seed=7)
    same &= np.array_equal(c.value, d.value)
    same &= mc_laplace_ppp(1e8, 0.1, sc, "dl", 200, seed=8) == \
        mc_laplace_ppp(1e8, 0.1, sc, "dl", 200, seed=8)

    data = {
        "geometry": "ppp", "experiment": "coverage", "mode": "mc",
        "mix": {"alpha_d": 0.5}, "gamma_grid_db": [-10.0, 0.0, 10.0],
        "n_draws": 200, "seed": 9, "label": "det",
    }
    with tempfile.TemporaryDirectory() as tmp:
        first = run(config_from_dict(data), out_dir=os.path.join(tmp, "a"))
        second = run(config_from_dict(data), out_dir=os.path.join(tmp, "b"))
        with open(first, "rb") as fa, open(second, "rb") as fb:
            same &= fa.read() == fb.read()

    return f"all repeated runs byte-identical: {bool(same)} (req True)", bool(same)


CRITERIA = (
    Criterion(1, "lattice-sum-identity", True, _lattice_sum_identity),
    Criterion(2, "edge-interference-identity", True, _edge_interference_identity),
    Criterion(3, "series-vs-integral", False, _series_vs_positional_integral),
    Criterion(4, "inverse-round-trips", True, _inverse_round_trips),
    Criterion(5, "macro-coverage-match", False, _macro_analytic_vs_mc_coverage),
    Criterion(6, "uplink-mixing-degradation", False, _uplink_degradation_without_power_control),
    Criterion(7, "power-control-trends", False, _fractional_power_control_trends),
    Criterion(8, "ppp-coverage-match", False, _ppp_analytic_vs_mc_coverage),
    Criterion(9, "closed-form-anchor", True, _closed_form_anchor),
    Criterion(10, "environment-mixing-gain", False, _small_cell_mixing_gain_by_environment),
    Criterion(11, "spectral-efficiency-trends", False, _spectral_efficiency_trends),
    Criterion(12, "mc-determinism", True, _determinism),
)


def verdicts(quick=False):
    """Run the acceptance criteria one by one, yielding (verdict line,
    passed) as each finishes, then the closing summary line and whether
    every criterion passed.

    quick=True runs only the criteria marked quick, at the same bounds
    as the full run.
    """
    passed = True
    for criterion in CRITERIA:
        if criterion.quick or not quick:
            line, ok = criterion.run()
            passed &= ok
            yield line, ok
    yield ("all checks passed" if passed else "validation FAILED"), passed


def validate(quick=False):
    """Run the acceptance criteria; returns (report, all_passed).

    The report holds the lines of :func:`verdicts`: one verdict line per
    criterion and a closing summary line.
    """
    lines = list(verdicts(quick))
    return "\n".join(line for line, _ in lines), lines[-1][1]
