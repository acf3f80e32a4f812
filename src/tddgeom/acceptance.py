"""The twelve acceptance criteria, run by both the test suite and
``tddgeom validate``.

Each check yields measurements ``(label, value, bound)``.  A bound is
``None`` for a value given as context, ``True`` for a truth, or a
relation and its limits: ``("<=", x)``, ``("<", x)``, ``(">", x)`` or
the closed interval ``("in", lo, hi)``.  ``Criterion.run`` times the
check and, where the criterion has a time budget, adds the time as one
more measurement.  The criterion passes only if every bound holds, and
its verdict line is written from those same bounds, each value to 6
significant digits and each failing measurement marked.  Failing checks
fail loudly; nothing is rounded toward success.
"""

import math
import operator
import os
import tempfile
import time
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .config import FAST_QUAD, config_from_dict
from .hexgrid import bruteforce_isr_ul_dl, lattice_sum, macro_interference_draws, mc_coverage_macro
from .macro_analytic import coverage_macro, downlink_inverse_sinr, inv_d, inv_u, uplink_inverse_sinr
from .macro_isr import a1, beta_h, isr_ul_dl
from .params import MacroNetwork, MobilePolar, PropagationParams, TddMix, thresholds
from .ppp_ase import ase
from .ppp_model import QuadratureControl, SmallCellScenario, coverage_ppp_dl, coverage_ppp_ul
from .ppp_sampler import _spectral_efficiency, mc_coverage_ppp, mc_laplace_ppp, mc_sinr_ppp, ppp_interference_draws
from .runner import run
from .specfun import SeriesControl, omega

_RELATIONS = {"<=": operator.le, "<": operator.lt, ">": operator.gt, "in": lambda value, lo, hi: lo <= value <= hi}


def _holds(value, bound):
    if bound is None:
        return True
    if bound is True:
        return value is True
    relation, *limits = bound
    return _RELATIONS[relation](value, *limits)


def _describe(label, value, bound, holds):
    """One measurement of a verdict line: its label and value, its bound
    as required, and a mark where the bound fails."""
    text = f"{label} {value if isinstance(value, bool) else format(value, '.6g')}"
    if bound is True:
        text += " (req True)"
    elif bound is not None:
        relation, *limits = bound
        required = f"in [{limits[0]:g}, {limits[1]:g}]" if relation == "in" else f"{relation}{limits[0]:g}"
        text += f" (req {required})"
    return text if holds else f"{text} <- FAIL"


class Criterion(NamedTuple):
    """One acceptance criterion.  ``quick`` marks the method checks that
    ``validate(quick=True)`` runs; ``check`` yields the measurements;
    ``budget`` is the time the whole check must stay under, in seconds,
    or None for no limit."""

    number: int
    name: str
    quick: bool
    check: Callable[[], Iterable[tuple]]
    budget: float | None = None

    def run(self):
        """Run and time the check; returns (verdict line, passed,
        measurements), the time last where a budget is set."""
        start = time.perf_counter()
        measurements = list(self.check())
        if self.budget is not None:
            measurements.append(("seconds", time.perf_counter() - start, ("<", self.budget)))
        holds = [_holds(value, bound) for _, value, bound in measurements]
        detail = ", ".join(_describe(*m, ok) for m, ok in zip(measurements, holds))
        passed = all(holds)
        verdict = "PASS" if passed else "FAIL"
        return f"criterion {self.number:02d} {self.name}: {detail} -> {verdict}", passed, measurements


def _lattice_sum_identity():
    net = MacroNetwork(rings=500)
    for two_b, tol in ((3.5, 1e-6), (2.5, 1e-3)):
        target = 6.0 * omega(two_b / 2.0)
        yield f"rel error 2b={two_b}", abs(lattice_sum(net, two_b) - target) / target, ("<=", tol)


def _edge_interference_identity():
    worst = 0.0
    for b in (1.25, 1.75):
        for k in (0.0, 0.4, 1.0):
            for xr in (0.3, 1.0 / math.sqrt(3.0)):
                lhs = 6.0 * xr ** (2.0 * b * k) * beta_h(0, b, k, xr)
                rhs = a1(b, k, xr)
                worst = max(worst, abs(lhs - rhs) / rhs)
    yield "worst rel error", worst, ("<=", 1e-10)


def _series_vs_positional_integral():
    prop = PropagationParams()
    net = MacroNetwork()
    series = isr_ul_dl(
        0.4, prop.b, prop.k, net.cell_radius / net.delta, prop.p_star_over_p,
        SeriesControl(max_terms=600),
    )
    # the positional sum carries a six-fold angular harmonic that the
    # circularized series averages away, so stratify over angles
    n_angles = 24
    estimates, ses = np.array([
        bruteforce_isr_ul_dl(MobilePolar(0.4, theta), net, prop, n_samples=1_000_000 // n_angles, seed=1000 + i)
        for i, theta in enumerate(np.arange(n_angles) * (2.0 * math.pi / n_angles))
    ]).T
    mc = float(estimates.mean())
    se = math.sqrt(float((ses * ses).sum())) / n_angles
    yield "series", series, None
    yield "mc", mc, None
    yield "gap in se", abs(mc - series) / se, ("<=", 3.0)


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

    yield "uplink rel error", worst_u, ("<=", 1e-12)
    yield "exact-inverse residual", worst_d, ("<=", 1e-10)
    # the series inverse misses the exact root by up to ~4.4% at mid-cell, so
    # the recorded tolerance is 5% out to x = 0.5 (2% holds to x = 0.4)
    yield "series rel dev x<=0.5", worst_series_05, ("<=", 0.05)
    yield "series rel dev x<=0.4", worst_series_04, ("<=", 0.02)


def _macro_analytic_vs_mc_coverage():
    net = MacroNetwork(rings=30)
    prop = PropagationParams()
    grid = np.arange(-30.0, 30.1, 5.0)
    for alpha_d, direction in ((1.0, "dl"), (0.5, "dl"), (0.5, "ul")):
        mix = TddMix(alpha_d=alpha_d)
        analytic = coverage_macro(grid, direction, net, prop, mix)
        curve = mc_coverage_macro(net, prop, mix, direction, grid, 20000, seed=13)
        yield f"sup gap ({alpha_d},{direction})", float(np.max(np.abs(analytic - curve.value))), ("<=", 0.03)


def _uplink_degradation_without_power_control():
    net = MacroNetwork(rings=4)
    prop = PropagationParams(two_b=3.5, k=0.0)
    grid = np.array([-20.0])
    pure = mc_coverage_macro(net, prop, TddMix(alpha_d=0.0), "ul", grid, 100000, seed=7)
    mixed = mc_coverage_macro(net, prop, TddMix(alpha_d=0.5), "ul", grid, 100000, seed=7)
    yield "drop in points at -20 dB", 100.0 * (pure.value[0] - mixed.value[0]), ("in", 70.0, 90.0)
    yield "analytic lattice limit", 100.0 * (
        coverage_macro(-20.0, "ul", net, prop, TddMix(alpha_d=0.0))
        - coverage_macro(-20.0, "ul", net, prop, TddMix(alpha_d=0.5))
    ), None


def _fractional_power_control_trends():
    net = MacroNetwork()
    props = [PropagationParams(k=k) for k in (0.0, 0.4, 0.8, 1.0)]
    mix = TddMix(alpha_d=0.5)
    grid = np.arange(-20.0, 10.1, 2.5)

    dl = np.stack([coverage_macro(grid, "dl", net, p, mix) for p in props])
    yield "downlink spread", float(np.max(dl.max(axis=0) - dl.min(axis=0))), ("<=", 0.01)

    ul = [coverage_macro(grid, "ul", net, p, mix) for p in props]
    yield "uplink strictly decreasing in k", all(np.all(lo > hi) for lo, hi in zip(ul, ul[1:])), True


def _ppp_analytic_vs_mc_coverage():
    sc = SmallCellScenario(lam=10.0, mix=TddMix(alpha_d=0.5))
    grid = np.arange(-20.0, 20.1, 5.0)
    for direction, fn in (("dl", coverage_ppp_dl), ("ul", coverage_ppp_ul)):
        analytic = fn(grid, sc)
        curve = mc_coverage_ppp(sc, direction, grid, 100000, seed=17)
        yield f"sup gap {direction}", float(np.max(np.abs(analytic - curve.value))), ("<=", 0.05)


def _closed_form_anchor():
    sc = SmallCellScenario(
        lam=10.0,
        prop=PropagationParams(two_b=4.0, p_noise_dbm=-math.inf),
        mix=TddMix(alpha_d=1.0),
    )
    grid = np.array([0.0, 5.0])
    rg = np.sqrt(thresholds(grid)[0])
    closed = 1.0 / (1.0 + rg * (math.pi / 2.0 - np.arctan(1.0 / rg)))
    yield "worst abs diff at 0/5 dB", float(np.max(np.abs(coverage_ppp_dl(grid, sc) - closed))), ("<=", 0.01)


def _small_cell_mixing_gain_by_environment():
    def gain(a_db):
        prop = PropagationParams(a_db=a_db)
        static = coverage_ppp_dl(-10.0, SmallCellScenario(lam=10.0, prop=prop, mix=TddMix(alpha_d=1.0)))
        dynamic = coverage_ppp_dl(-10.0, SmallCellScenario(lam=10.0, prop=prop, mix=TddMix(alpha_d=0.5)))
        return 100.0 * (dynamic - static)

    yield "outdoor gain in points", gain(130.0), ("in", 10.0, 20.0)
    yield "indoor |gap| in points", abs(gain(160.0)), ("<", 3.0)


def _spectral_efficiency_trends():
    quad = QuadratureControl(**FAST_QUAD)

    def scenario(lam, alpha_d, window=None):
        return SmallCellScenario(lam=lam, window_radius=window, mix=TddMix(alpha_d=alpha_d))

    for lam in (5.0, 10.0, 50.0):
        gain = ase(scenario(lam, 0.5), "dl", quad) - ase(scenario(lam, 1.0), "dl", quad)
        yield f"downlink mixing gain in bit/s/Hz at lambda={lam:g}", gain, (">", 0.0)

    ul = [ase(scenario(lam, 0.5), "ul", quad) for lam in (5.0, 10.0, 20.0, 50.0)]
    yield "uplink strictly decreasing in lambda", all(a > b for a, b in zip(ul, ul[1:])), True

    # window wide enough that truncation sits below the sampling error
    for direction in ("dl", "ul"):
        sc = scenario(10.0, 0.5, window=3.0)
        mean, se = _spectral_efficiency(sc, direction, 20000, seed=21)
        yield f"mc gap {direction} in se", abs(ase(sc, direction, quad) - mean) / se, ("<=", 3.0)


def _determinism():
    net = MacroNetwork(rings=2)
    prop = PropagationParams()
    mix = TddMix(alpha_d=0.5)
    sc = SmallCellScenario(lam=10.0, mix=mix)
    grid = np.array([-10.0, 0.0, 10.0])

    def repeats(draw):
        return np.array_equal(draw(), draw())

    yield "bruteforce_isr_ul_dl repeats", repeats(
        lambda: bruteforce_isr_ul_dl(MobilePolar(0.3, 0.1), net, prop, 300, seed=3)), True
    yield "mc_coverage_macro repeats", repeats(
        lambda: mc_coverage_macro(net, prop, mix, "dl", grid, 300, seed=4).value), True

    # streams per draw (macro) and per chunk of draws (PPP) make a short
    # run the prefix of a longer one
    short = macro_interference_draws(net, prop, mix, "ul", 6, seed=5)
    long = macro_interference_draws(net, prop, mix, "ul", 20, seed=5)
    yield "macro_interference_draws prefix", all(np.array_equal(short[k], long[k][:6]) for k in short), True
    short = ppp_interference_draws(sc, "dl", 6, seed=5)
    long = ppp_interference_draws(sc, "dl", 20, seed=5)
    yield "ppp_interference_draws prefix", all(np.array_equal(short[k], long[k][:6]) for k in short), True

    for assoc in ("rayleigh", "nearest"):
        yield f"mc_sinr_ppp {assoc} repeats", repeats(
            lambda: mc_sinr_ppp(sc, "ul", 200, seed=6, association=assoc)), True
    yield "mc_coverage_ppp repeats", repeats(lambda: mc_coverage_ppp(sc, "dl", grid, 200, seed=7).value), True
    yield "mc_laplace_ppp repeats", repeats(lambda: mc_laplace_ppp(1e8, 0.1, sc, "dl", 200, seed=8)), True

    data = {
        "geometry": "ppp", "experiment": "coverage", "mode": "mc",
        "mix": {"alpha_d": 0.5}, "gamma_grid_db": [-10.0, 0.0, 10.0],
        "n_draws": 200, "seed": 9, "label": "det",
    }

    def csv_bytes(out_dir):
        with open(run(config_from_dict(data), out_dir=out_dir), "rb") as fh:
            return fh.read()

    with tempfile.TemporaryDirectory() as tmp:
        same = csv_bytes(os.path.join(tmp, "a")) == csv_bytes(os.path.join(tmp, "b"))
    yield "run CSV repeats", same, True


CRITERIA = (
    Criterion(1, "lattice-sum-identity", True, _lattice_sum_identity, budget=5.0),
    Criterion(2, "edge-interference-identity", True, _edge_interference_identity, budget=1.0),
    Criterion(3, "series-vs-integral", False, _series_vs_positional_integral, budget=30.0),
    Criterion(4, "inverse-round-trips", True, _inverse_round_trips),
    Criterion(5, "macro-coverage-match", False, _macro_analytic_vs_mc_coverage, budget=120.0),
    Criterion(6, "uplink-mixing-degradation", False, _uplink_degradation_without_power_control),
    Criterion(7, "power-control-trends", False, _fractional_power_control_trends),
    Criterion(8, "ppp-coverage-match", False, _ppp_analytic_vs_mc_coverage, budget=300.0),
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
            line, ok, _ = criterion.run()
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
