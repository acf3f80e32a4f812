"""The benchmark's workloads: the operations of one round, as config
trees for ``tddgeom.run`` or as direct calls for the two diagnostics
the config schema cannot express.

The analytic workloads' inputs do not depend on the seed: their work
is deterministic, and a cold series cache or a quadrature refinement
must cost the same in every run.  The seed feeds the Monte Carlo
streams of the ``monte-carlo`` workload.
"""

import csv
import math
from dataclasses import dataclass
from typing import Callable

WORKLOADS = ("analytic-curves", "ase", "monte-carlo")

# the recipes' reduced quadrature for the small-cell figures
FAST_QUAD = {"n_theta": 16, "n_rho": 32, "n_x": 24, "n_serving": 24,
             "inner_abs_tol": 1e-5, "outer_abs_tol": 1e-4, "ase_rel_tol": 1e-3}

# user radius and draws of the brute-force ISR; the angles are midpoint
# nodes of the lattice's symmetry sector [0, pi/6], so their mean is the
# angle average that the isr_ul_dl series gives
BRUTEFORCE_X = 0.3
BRUTEFORCE_ANGLES = 6
BRUTEFORCE_SAMPLES = 40000
# fixed seeds: a 3-standard-error check on seed-driven draws would fail
# by chance in one run of 370
BRUTEFORCE_SEED = 1000


@dataclass(frozen=True)
class Op:
    """One operation of a round.

    ``config`` is run through ``tddgeom.run``; ``call`` receives the
    imported package and returns the operation's values as a dict.  ``raises``
    names the exception the operation must raise to count as done.
    ``layer`` is the module that does most of the work, for the trace.
    """

    label: str
    layer: str
    config: dict = None
    call: Callable = None
    raises: str = None


def _macro_coverage(label, direction, alpha_d, layer="macro_analytic", **extra):
    tree = {"geometry": "macro", "experiment": "coverage", "direction": direction,
            "mode": "analytic", "mix": {"alpha_d": alpha_d}}
    tree.update(extra)
    return Op(label, layer, tree)


def _ppp_coverage(label, direction, alpha_d, mode="analytic", layer="ppp_model", **extra):
    tree = {"geometry": "ppp", "experiment": "coverage", "direction": direction,
            "mode": mode, "mix": {"alpha_d": alpha_d}}
    tree.update(extra)
    return Op(label, layer, tree)


def _analytic_curves():
    ops = [
        Op("fig1-isr-dl", "macro_analytic",
           {"geometry": "macro", "experiment": "isr", "direction": "dl",
            "mix": {"alpha_d": 0.5}, "series": {"max_terms": 600}}),
        Op("fig2-isr-ul", "macro_analytic",
           {"geometry": "macro", "experiment": "isr", "direction": "ul",
            "mix": {"alpha_d": 0.5}, "series": {"max_terms": 600}}),
        _macro_coverage("fig4-cov-dl-macro", "dl", 0.5),
        _macro_coverage("fig5-cov-ul-macro", "ul", 0.5, propagation={"k": 0.0}),
    ]
    ops += [
        _macro_coverage(f"fig6-fpc-{direction}-k{str(k).replace('.', '')}", direction, 0.5,
                        propagation={"k": k},
                        gamma_grid_db={"start": -20.0, "stop": 10.0, "step": 1.0})
        for direction in ("dl", "ul")
        for k in (0.0, 0.4, 0.8, 1.0)
    ]
    ppp_grid = {"start": -20.0, "stop": 20.0, "step": 2.0}
    ops += [
        _ppp_coverage("fig7-cov-dl-ppp-outdoor-dtdd", "dl", 0.5,
                      gamma_grid_db=ppp_grid, quadrature=FAST_QUAD),
        _ppp_coverage("fig8-cov-ul-ppp-outdoor-dtdd", "ul", 0.5,
                      gamma_grid_db=ppp_grid, quadrature=FAST_QUAD),
        # the closed-form anchor: 2b = 4, no noise, static TDD, default quadrature
        _ppp_coverage("ppp-anchor-default-quad", "dl", 1.0,
                      propagation={"two_b": 4.0, "p_noise_dbm": -math.inf},
                      gamma_grid_db=[0.0, 5.0]),
        _macro_coverage("macro-cov-dl-2b4", "dl", 0.5, propagation={"two_b": 4.0}),
        # x = 0.45 lies beyond the convergence radius 1 - R/delta = 0.4226
        Op("isr-divergent", "macro_analytic",
           {"geometry": "macro", "experiment": "isr", "direction": "dl",
            "mix": {"alpha_d": 0.5}, "x_grid": [0.2, 0.45]},
           raises="TruncationError"),
    ]
    return ops


def _ase():
    return [Op("fig9-ase-dl-outdoor-dtdd", "ppp_model",
               {"geometry": "ppp", "experiment": "ase", "direction": "dl",
                "mix": {"alpha_d": 0.5}, "lambda_grid": [10.0], "quadrature": FAST_QUAD})]


def _nearest(seed):
    def call(tg):
        scenario = tg.SmallCellScenario(lam=10.0, mix=tg.TddMix(alpha_d=0.5))
        return {"sinr": tg.mc_sinr_ppp(scenario, "dl", 10000, seed, association="nearest")}
    return call


def _bruteforce(j):
    theta = (j + 0.5) * math.pi / 6.0 / BRUTEFORCE_ANGLES

    def call(tg):
        estimate, stderr = tg.bruteforce_isr_ul_dl(
            tg.MobilePolar(BRUTEFORCE_X, theta), tg.MacroNetwork(), tg.PropagationParams(),
            n_samples=BRUTEFORCE_SAMPLES, seed=BRUTEFORCE_SEED + j)
        return {"estimate": estimate, "stderr": stderr}
    return call


def _monte_carlo(seed):
    base = 16 * seed
    macro_grid = {"start": -30.0, "stop": 30.0, "step": 5.0}
    ppp_grid = {"start": -20.0, "stop": 20.0, "step": 5.0}
    ops = [
        _macro_coverage("mc-macro-r4-dl", "dl", 0.5, layer="hexgrid", mode="mc",
                        n_draws=20000, seed=base),
        _macro_coverage("mc-macro-r30-dl", "dl", 0.5, layer="hexgrid", mode="mc",
                        macro={"rings": 30}, gamma_grid_db=macro_grid, n_draws=8000, seed=base + 1),
        _ppp_coverage("mc-ppp-dl", "dl", 0.5, mode="mc", gamma_grid_db=ppp_grid,
                      n_draws=10000, seed=base + 2),
        _ppp_coverage("mc-ppp-ul", "ul", 0.5, mode="mc", gamma_grid_db=ppp_grid,
                      n_draws=10000, seed=base + 3),
        Op("mc-ppp-nearest-dl", "ppp_model", call=_nearest(base + 4)),
    ]
    ops += [Op(f"bruteforce-isr-ul-dl-{j}", "hexgrid", call=_bruteforce(j))
            for j in range(BRUTEFORCE_ANGLES)]
    return ops


def operations(workload, seed):
    """The operations of one round of ``workload``, in order."""
    if workload == "analytic-curves":
        return _analytic_curves()
    if workload == "ase":
        return _ase()
    if workload == "monte-carlo":
        return _monte_carlo(seed)
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


def read_csv(path):
    """Columns of an experiment CSV: floats where they parse, else text.
    A long-format ISR file becomes one column per ISR component."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if rows and "isr_component" in rows[0]:
        out = {}
        for row in rows:
            out.setdefault("x", [])
            if not out["x"] or out["x"][-1] != float(row["x"]):
                out["x"].append(float(row["x"]))
            out.setdefault(row["isr_component"], []).append(float(row["value"]))
        return out
    return {key: [float(row[key]) for row in rows] for key in rows[0]}
