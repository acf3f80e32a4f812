"""Correctness checks on a round's outputs, and the perturbations that
show each check can fail.

Every check compares the values read back from the CSVs that
``tddgeom.run`` wrote (or returned by a direct call) either against a
computation made apart from the program, or against a property the
method must have.  None compares against a stored copy of an earlier
output.  A check returns ``(passed, detail)``; its perturbation spoils
the value it guards in a copy of the outputs.
"""

import copy
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from workloads import (
    BRUTEFORCE_ANGLES,
    BRUTEFORCE_X,
    FAST_QUAD,
)

# relative error of the benchmark's own lattice sums: ring sums at N and
# 2N rings with a continuum tail, Richardson-extrapolated in the tail's
# N^-(2b-2) error; the residual is about 1e-8 at 2b = 3.5 (see README)
LATTICE_RINGS = 100
LATTICE_REL_TOL = 1e-7
# user-angle nodes on the symmetry sector [0, pi/6]
LATTICE_ANGLES = 8
OMEGA_B = (1.75, 2.0)

ASE_MC_DRAWS = 5000
ASE_MC_WINDOW_KM = 3.0
ASE_MC_SEED = 21


# ---------------------------------------------------------------------------
# computations made apart from the program


def _hex_sites(rings):
    idx = np.arange(-rings, rings + 1)
    m, n = np.meshgrid(idx, idx, indexing="ij")
    ring = (np.abs(m) + np.abs(n) + np.abs(m + n)) // 2
    keep = (ring >= 1) & (ring <= rings)
    return m[keep] + n[keep] * complex(0.5, 0.5 * math.sqrt(3.0))


def _ring_sum(z, b, rings):
    """sum over the nonzero sites of rings 1..rings of |s - z|^-2b, for
    each z, plus the continuum beyond the area-equivalent disk."""
    sites = _hex_sites(rings)
    total = np.array([np.sum(np.abs(sites - zi) ** (-2.0 * b)) for zi in np.atleast_1d(z)])
    count = 1 + 3 * rings * (rings + 1)
    r_eq = math.sqrt(math.sqrt(3.0) * count / (2.0 * math.pi))
    density = 2.0 / math.sqrt(3.0)
    return total + density * 2.0 * math.pi * r_eq ** (2.0 - 2.0 * b) / (2.0 * b - 2.0)


def lattice_sum(z, b):
    """Unit-spacing hexagonal lattice sum of |s - z|^-2b over s != 0."""
    p = 2.0 ** (2.0 * b - 2.0)
    coarse = _ring_sum(z, b, LATTICE_RINGS)
    fine = _ring_sum(z, b, 2 * LATTICE_RINGS)
    return (p * fine - coarse) / (p - 1.0)


def dl_to_dl_reference(xs, b):
    """Cell-to-cell ISR averaged over the user angle: midpoint nodes on
    [0, pi/6], where the lattice's twelve symmetries make the mean equal
    to the full-circle mean."""
    theta = (np.arange(LATTICE_ANGLES) + 0.5) * (math.pi / 6.0 / LATTICE_ANGLES)
    out = []
    for x in xs:
        sums = lattice_sum(x * np.exp(1j * theta), b)
        out.append(x ** (2.0 * b) * float(np.mean(sums)))
    return out


def abg_coverage(gamma_db):
    """Andrews-Baccelli-Ganti SIR coverage of the nearest-cell PPP
    downlink at path-loss exponent 4 under Rayleigh fading."""
    rg = math.sqrt(10.0 ** (gamma_db / 10.0))
    return 1.0 / (1.0 + rg * (math.pi / 2.0 - math.atan(1.0 / rg)))


def references(workload, out, tg, rerun):
    """The values each check compares against.  ``rerun(label)`` runs
    one operation of the round again and returns its outputs."""
    ref = {}
    if workload == "analytic-curves":
        ref["omega"] = [lattice_sum(0.0, b)[0] / 6.0 for b in out["omega"]["b"]]
        ref["dl_to_dl"] = dl_to_dl_reference(out["fig1-isr-dl"]["x"], 1.75)
        ref["abg"] = [abg_coverage(g) for g in out["ppp-anchor-default-quad"]["gamma_db"]]
    elif workload == "ase":
        scenario = tg.SmallCellScenario(lam=10.0, window_radius=ASE_MC_WINDOW_KM,
                                        mix=tg.TddMix(alpha_d=0.5))
        eff = np.log2(1.0 + tg.mc_sinr_ppp(scenario, "dl", ASE_MC_DRAWS, ASE_MC_SEED))
        ref["ase_mc"] = (float(eff.mean()), float(eff.std(ddof=1)) / math.sqrt(eff.size))
    elif workload == "monte-carlo":
        mix = tg.TddMix(alpha_d=0.5)
        net = tg.MacroNetwork(rings=30)
        prop = tg.PropagationParams()
        ref["r30"] = [tg.coverage_macro(g, "dl", net, prop, mix)
                      for g in out["mc-macro-r30-dl"]["gamma_db"]]
        quad = tg.QuadratureControl(**FAST_QUAD)
        scenario = tg.SmallCellScenario(lam=10.0, mix=mix)
        for direction, fn in (("dl", tg.coverage_ppp_dl), ("ul", tg.coverage_ppp_ul)):
            ref[f"ppp_{direction}"] = [fn(g, scenario, quad)
                                       for g in out[f"mc-ppp-{direction}"]["gamma_db"]]
        base = tg.MacroNetwork()
        ref["isr_ul_dl"] = tg.isr_ul_dl(
            BRUTEFORCE_X / base.delta, prop.b, prop.k, base.x_edge, prop.p_star_over_p,
            tg.SeriesControl(max_terms=600), base.delta)
        ref["rerun_r4"] = rerun("mc-macro-r4-dl")
    return ref


# ---------------------------------------------------------------------------
# checks


def _curves(out):
    """Every coverage curve of a round: (label, thresholds, values)."""
    for label, cols in sorted(out.items()):
        if isinstance(cols, dict) and "gamma_db" in cols and "value" in cols:
            yield label, cols["gamma_db"], cols["value"]


def _check_omega(out, ref):
    worst = max(abs(got / want - 1.0) for got, want in zip(out["omega"]["value"], ref["omega"]))
    return worst <= LATTICE_REL_TOL, f"max rel error {worst:.2e} (bound {LATTICE_REL_TOL:g})"


def _check_dl_to_dl(out, ref):
    got = np.array(out["fig1-isr-dl"]["dl_to_dl"])
    worst = float(np.max(np.abs(got / np.array(ref["dl_to_dl"]) - 1.0)))
    return worst <= LATTICE_REL_TOL, f"max rel error {worst:.2e} over {got.size} radii (bound {LATTICE_REL_TOL:g})"


def _check_anchor(out, ref):
    worst = float(np.max(np.abs(np.array(out["ppp-anchor-default-quad"]["value"]) - ref["abg"])))
    return worst <= 0.01, f"max abs gap {worst:.2e} to the closed form (bound 0.01)"


def _check_unit_interval(out, ref):
    bad = [label for label, _, v in _curves(out) if not all(0.0 <= c <= 1.0 for c in v)]
    return not bad, f"outside [0, 1]: {bad}" if bad else "all coverage values in [0, 1]"


def _check_nonincreasing(out, ref):
    bad = [label for label, _, v in _curves(out) if np.any(np.diff(v) > 0.0)]
    return not bad, f"increasing somewhere: {bad}" if bad else "no coverage rises with the threshold"


def _check_fpc_order(out, ref):
    ks = ("00", "04", "08", "10")
    curves = [np.array(out[f"fig6-fpc-ul-k{k}"]["value"]) for k in ks]
    ok = all(np.all(lo > hi) for lo, hi in zip(curves, curves[1:]))
    return ok, f"uplink coverage strictly decreasing in k at every threshold: {ok}"


def _check_isr_increasing(out, ref):
    bad = [f"{label}:{name}" for label in ("fig1-isr-dl", "fig2-isr-ul")
           for name, v in out[label].items() if name != "x" and not np.all(np.diff(v) > 0.0)]
    return not bad, f"not increasing in x: {bad}" if bad else "every ISR component increases in x"


def _check_divergent(out, ref):
    raised = out["isr-divergent"]["raised"]
    return raised == "TruncationError", f"raised {raised}"


def _check_ase(out, ref):
    mean, se = ref["ase_mc"]
    value = out["fig9-ase-dl-outdoor-dtdd"]["ase"][0]
    sigmas = abs(value - mean) / se
    return sigmas <= 3.0, f"ASE {value:.5f} vs Monte Carlo {mean:.5f}: {sigmas:.2f} se (bound 3)"


def _check_r30(out, ref):
    gap = float(np.max(np.abs(np.array(out["mc-macro-r30-dl"]["value"]) - ref["r30"])))
    return gap <= 0.03, f"sup gap {gap:.4f} to coverage_macro (bound 0.03)"


def _check_ppp_mc(out, ref):
    gaps = {d: float(np.max(np.abs(np.array(out[f"mc-ppp-{d}"]["value"]) - ref[f"ppp_{d}"])))
            for d in ("dl", "ul")}
    return max(gaps.values()) <= 0.05, f"sup gap dl {gaps['dl']:.4f}, ul {gaps['ul']:.4f} (bound 0.05)"


def _bruteforce_mean(out):
    est = np.array([out[f"bruteforce-isr-ul-dl-{j}"]["estimate"] for j in range(BRUTEFORCE_ANGLES)])
    se = np.array([out[f"bruteforce-isr-ul-dl-{j}"]["stderr"] for j in range(BRUTEFORCE_ANGLES)])
    return float(est.mean()), math.sqrt(float(np.sum(se * se))) / BRUTEFORCE_ANGLES


def _check_bruteforce(out, ref):
    mean, se = _bruteforce_mean(out)
    sigmas = abs(mean - ref["isr_ul_dl"]) / se
    return sigmas <= 3.0, (f"brute force {mean:.6e} vs series {ref['isr_ul_dl']:.6e}: "
                           f"{sigmas:.2f} se (bound 3)")


def _check_repeat(out, ref):
    same = out["mc-macro-r4-dl"] == ref["rerun_r4"]
    return same, f"second run with the same seed identical: {same}"


def _check_nearest(out, ref):
    sinr = np.asarray(out["mc-ppp-nearest-dl"]["sinr"])
    ok = bool(np.all(np.isfinite(sinr)) and np.all(sinr > 0.0))
    return ok, f"{sinr.size} nearest-association SINR samples finite and positive: {ok}"


# ---------------------------------------------------------------------------
# perturbations: each spoils, in place, the value its check guards


def _bump(label, column, index, change):
    def spoil(out, ref):
        values = out[label][column]
        values[index] = change(values[index])
    return spoil


def _raise_first_curve(out, ref):
    _, _, values = next(_curves(out))
    values[0] = 1.0 + 1e-6


def _swap_steepest(out, ref):
    _, _, values = next(_curves(out))
    i = int(np.argmin(np.diff(values)))
    values[i], values[i + 1] = values[i + 1], values[i]


def _equal_uplink_k(out, ref):
    out["fig6-fpc-ul-k04"]["value"] = list(out["fig6-fpc-ul-k00"]["value"])


def _reverse_isr(out, ref):
    out["fig1-isr-dl"]["total"].reverse()


def _raise_overflow(out, ref):
    out["isr-divergent"]["raised"] = "OverflowError"


def _shift_bruteforce(out, ref):
    # four standard errors further from the series than it already is
    mean, se = _bruteforce_mean(out)
    step = math.copysign(4.0 * se, mean - ref["isr_ul_dl"])
    for j in range(BRUTEFORCE_ANGLES):
        out[f"bruteforce-isr-ul-dl-{j}"]["estimate"] += step


def _shift_ase(out, ref):
    mean, se = ref["ase_mc"]
    ase = out["fig9-ase-dl-outdoor-dtdd"]["ase"]
    ase[0] += math.copysign(4.0 * se, ase[0] - mean)


@dataclass(frozen=True)
class Check:
    name: str
    workloads: tuple
    run: Callable
    spoil: Callable

    def perturbed(self, out, ref):
        """A copy of ``out`` with the value this check guards spoiled."""
        bad = copy.deepcopy(out)
        self.spoil(bad, ref)
        return bad


CHECKS = (
    Check("omega-vs-lattice-sum", ("analytic-curves",), _check_omega,
          _bump("omega", "value", 0, lambda v: v * (1.0 + 1e-6))),
    Check("dl-to-dl-vs-lattice-sum", ("analytic-curves",), _check_dl_to_dl,
          _bump("fig1-isr-dl", "dl_to_dl", 9, lambda v: v * (1.0 + 1e-6))),
    Check("ppp-anchor-vs-closed-form", ("analytic-curves",), _check_anchor,
          _bump("ppp-anchor-default-quad", "value", 0, lambda v: v + 0.02)),
    Check("coverage-in-unit-interval", ("analytic-curves", "monte-carlo"), _check_unit_interval,
          _raise_first_curve),
    Check("coverage-nonincreasing", ("analytic-curves", "monte-carlo"), _check_nonincreasing,
          _swap_steepest),
    Check("uplink-coverage-decreasing-in-k", ("analytic-curves",), _check_fpc_order, _equal_uplink_k),
    Check("isr-increasing-in-x", ("analytic-curves",), _check_isr_increasing, _reverse_isr),
    Check("divergent-request-raises-truncation", ("analytic-curves",), _check_divergent,
          _raise_overflow),
    Check("ase-vs-monte-carlo", ("ase",), _check_ase, _shift_ase),
    Check("macro-r30-vs-coverage-macro", ("monte-carlo",), _check_r30,
          _bump("mc-macro-r30-dl", "value", 6, lambda v: v + 0.05)),
    Check("ppp-mc-vs-analytic", ("monte-carlo",), _check_ppp_mc,
          _bump("mc-ppp-ul", "value", 4, lambda v: v + 0.06)),
    Check("bruteforce-vs-isr-ul-dl-series", ("monte-carlo",), _check_bruteforce, _shift_bruteforce),
    Check("seeded-mc-repeats-bit-for-bit", ("monte-carlo",), _check_repeat,
          _bump("mc-macro-r4-dl", "value", 20, lambda v: math.nextafter(v, 2.0))),
    Check("nearest-sinr-finite-positive", ("monte-carlo",), _check_nearest,
          _bump("mc-ppp-nearest-dl", "sinr", 0, lambda v: math.nan)),
)


def checks_for(workload):
    return [c for c in CHECKS if workload in c.workloads]


def run_checks(workload, out, ref):
    """[(name, passed, detail)] for every check of the workload."""
    results = []
    for check in checks_for(workload):
        passed, detail = check.run(out, ref)
        results.append((check.name, bool(passed), detail))
    return results
