"""Per-layer probes for the traced run.

Each probe times calls into one module of ``tddgeom`` through names the
package exports, records a span around every call with the value the
call produced, and reports one metric.  The probes run in a fresh
process, so "cold" means an empty cache.  A probe whose name a later
change removed is reported as missing and the others still run.
"""

import math
import os
import statistics
import time

import numpy as np

from workloads import FAST_QUAD


class Missing(Exception):
    """A name the probe needs is not exported any more."""


def need(tg, dotted):
    """``tddgeom.<dotted>``, or Missing."""
    obj = tg
    for part in dotted.split("."):
        if not hasattr(obj, part):
            raise Missing(f"tddgeom.{dotted}")
        obj = getattr(obj, part)
    return obj


def _timed(tracer, name, layer, fn, *args, **kwargs):
    """Call ``fn`` inside a span; returns (value, seconds)."""
    with tracer.span(name, layer) as span:
        start = time.perf_counter()
        value = fn(*args, **kwargs)
        seconds = time.perf_counter() - start
        span["values"] = value
    return value, seconds


def _median_per_call(tracer, name, layer, calls):
    """Median wall time of ``calls``, a list of zero-argument callables."""
    return statistics.median(_timed(tracer, name, layer, c)[1] for c in calls)


# ---------------------------------------------------------------------------
# rng


def _rng_stream(tg, tracer, seed):
    stream = need(tg, "rng.stream")

    def batch(first):
        def call():
            for i in range(first, first + 400):
                gen = stream(seed, i)
            return float(gen.random())
        return call

    per_batch = _median_per_call(tracer, "rng.stream x400", "rng", [batch(400 * j) for j in range(5)])
    return per_batch / 400 * 1e6


def _rng_bulk(tg, tracer, seed):
    gen = need(tg, "rng.stream")(seed, 0)
    n = 2_000_000
    calls = [lambda: float(gen.random(n).mean()) for _ in range(5)]
    return _median_per_call(tracer, "Generator.random(2e6)", "rng", calls) / n * 1e9


# ---------------------------------------------------------------------------
# specfun


def _omega(tg, tracer, seed):
    omega = need(tg, "omega")

    # arguments no other probe or workload uses, so every call is cold
    def batch(j):
        return lambda: [omega(1.2 + 0.37 * i + 0.001 * j) for i in range(60)]

    return _median_per_call(tracer, "omega x60 cold", "specfun", [batch(j) for j in range(5)]) / 60 * 1e6


def _hurwitz(tg, tracer, seed):
    zeta = need(tg, "hurwitz_zeta")

    def batch(j):
        return lambda: [zeta(1.5 + 0.17 * i + 0.01 * j, q) for i in range(20)
                        for q in (1.0 / 3.0, 2.0 / 3.0, 1.0)]

    return _median_per_call(tracer, "hurwitz_zeta x60", "specfun", [batch(j) for j in range(5)]) / 60 * 1e6


# ---------------------------------------------------------------------------
# macro_analytic


def _default_macro(tg):
    return tg.MacroNetwork(), tg.PropagationParams()


def _beta_h_cold(tg, tracer, seed):
    beta_h = need(tg, "beta_h")
    n = 40
    # (b, k) = (1.6, 0.3) appears nowhere else in the benchmark
    _, seconds = _timed(tracer, "beta_h h<40 at b=1.6 k=0.3", "macro_analytic",
                        lambda: [beta_h(h, 1.6, 0.3, 1.0 / math.sqrt(3.0)) for h in range(n)])
    return seconds / n * 1e3


def _isr_sweep(tg, tracer, seed):
    isr_total = need(tg, "isr_total")
    net, prop = _default_macro(tg)
    mix = tg.TddMix(alpha_d=0.5)
    ctrl = tg.SeriesControl(max_terms=600)
    xs = np.round(np.arange(0.02, 0.401, 0.02), 10)

    def sweep():
        return [isr_total(tg.MobilePolar(float(x) * net.delta), net, prop, mix, ctrl=ctrl).total_dl
                for x in xs]

    return _timed(tracer, "isr_total x20, max_terms=600", "macro_analytic", sweep)[1]


def _reject(tg, tracer, seed):
    isr_ul_dl = need(tg, "isr_ul_dl")
    truncation = need(tg, "TruncationError")
    net, prop = _default_macro(tg)

    def request():
        try:
            isr_ul_dl(0.45, prop.b, prop.k, net.x_edge, prop.p_star_over_p)
        except truncation as exc:
            return f"TruncationError after {exc.terms} terms"
        return "returned"

    return _timed(tracer, "isr_ul_dl(x=0.45) until it raises", "macro_analytic", request)[1]


def _macro_coverage(direction, alpha_d, grid, scale, label):
    def probe(tg, tracer, seed):
        coverage = need(tg, "coverage_macro")
        net, prop = _default_macro(tg)
        mix = tg.TddMix(alpha_d=alpha_d)
        coverage(grid[0], direction, net, prop, mix)  # model-level caches, not per threshold
        calls = [lambda g=g: coverage(g, direction, net, prop, mix) for g in grid]
        return _median_per_call(tracer, f"coverage_macro {label}", "macro_analytic", calls) * scale
    return probe


# ---------------------------------------------------------------------------
# ppp_model, quadrature


def _scenario(tg):
    return tg.SmallCellScenario(lam=10.0, mix=tg.TddMix(alpha_d=0.5))


def _laplace(quad_kwargs, label):
    def probe(tg, tracer, seed):
        laplace = need(tg, "laplace_dl")
        sc = _scenario(tg)
        quad = tg.QuadratureControl(**quad_kwargs)
        calls = []
        for r in (0.5 * sc.rho_scale, sc.rho_scale, 2.0 * sc.rho_scale):
            for gamma in (0.1, 1.0, 10.0):
                v = gamma * r ** sc.prop.two_b / sc.p_small_mw
                calls.append(lambda v=v, r=r: laplace(v, r, sc, quad))
        return _median_per_call(tracer, f"laplace_dl {label}", "ppp_model", calls) * 1e3
    return probe


def _ppp_coverage(name, quad_kwargs, grid, label):
    def probe(tg, tracer, seed):
        coverage = need(tg, name)
        sc = _scenario(tg)
        quad = tg.QuadratureControl(**quad_kwargs)
        calls = [lambda g=g: coverage(g, sc, quad) for g in grid]
        return _median_per_call(tracer, f"{name} {label}", "ppp_model", calls) * 1e3
    return probe


def _ase(tg, tracer, seed):
    ase = need(tg, "ase")
    quad = tg.QuadratureControl(**FAST_QUAD)
    return _timed(tracer, "ase dl fast_quad", "ppp_model", ase, _scenario(tg), "dl", quad)[1]


# ---------------------------------------------------------------------------
# samplers


def _mc_ppp(association):
    def probe(tg, tracer, seed):
        mc = need(tg, "mc_sinr_ppp")
        n = 3000
        _, seconds = _timed(tracer, f"mc_sinr_ppp {association} x{n}", "ppp_model",
                            lambda: mc(_scenario(tg), "dl", n, seed, association=association))
        return seconds / n * 1e6
    return probe


def _mc_macro(rings, n):
    def probe(tg, tracer, seed):
        mc = need(tg, "mc_coverage_macro")
        net = tg.MacroNetwork(rings=rings)
        _, seconds = _timed(tracer, f"mc_coverage_macro rings={rings} x{n}", "hexgrid",
                            lambda: mc(net, tg.PropagationParams(), tg.TddMix(alpha_d=0.5), "dl",
                                       np.array([-10.0, 0.0, 10.0]), n, seed).value)
        return seconds / n * 1e6
    return probe


def _bruteforce(tg, tracer, seed):
    bruteforce = need(tg, "bruteforce_isr_ul_dl")
    net, prop = _default_macro(tg)
    n = 20000
    _, seconds = _timed(tracer, f"bruteforce_isr_ul_dl x{n}", "hexgrid",
                        lambda: bruteforce(tg.MobilePolar(0.3, 0.1), net, prop, n_samples=n, seed=seed))
    return seconds / n * 1e9


# ---------------------------------------------------------------------------
# config


def _run_overhead(outdir):
    def probe(tg, tracer, seed):
        run = need(tg, "run")
        cfg = need(tg, "config_from_dict")(
            {"geometry": "macro", "experiment": "coverage", "direction": "ul", "gamma_grid_db": [0.0]})
        calls = [lambda i=i: os.path.basename(run(cfg, out_dir=outdir, label=f"overhead-{i}"))
                 for i in range(10)]
        return _median_per_call(tracer, "run() of a one-threshold uplink curve", "config", calls) * 1e3
    return probe


def probes(outdir):
    """(metric, unit, probe) in the order they run; ``outdir`` takes the
    files that ``tddgeom.run`` writes."""
    pattern_grid = list(np.arange(-15.0, 15.1, 1.0))
    return [
        ("rng.stream_us", "us", _rng_stream),
        ("rng.bulk_ns_per_double", "ns", _rng_bulk),
        ("specfun.omega_us", "us", _omega),
        ("specfun.hurwitz_zeta_us", "us", _hurwitz),
        ("macro_analytic.beta_h_cold_ms", "ms", _beta_h_cold),
        ("macro_analytic.isr_sweep_s", "s", _isr_sweep),
        ("macro_analytic.reject_s", "s", _reject),
        ("macro_analytic.coverage_pattern_ms", "ms",
         _macro_coverage("dl", 0.5, pattern_grid, 1e3, "alpha_d=0.5 dl")),
        ("macro_analytic.coverage_bisection_ms", "ms",
         _macro_coverage("dl", 1.0, pattern_grid[::3], 1e3, "alpha_d=1 dl")),
        ("macro_analytic.coverage_ul_us", "us",
         _macro_coverage("ul", 0.5, pattern_grid, 1e6, "alpha_d=0.5 ul")),
        ("ppp_model.laplace_fast_ms", "ms", _laplace(FAST_QUAD, "fast_quad")),
        ("ppp_model.laplace_default_ms", "ms", _laplace({}, "default quadrature")),
        ("ppp_model.coverage_dl_fast_ms", "ms",
         _ppp_coverage("coverage_ppp_dl", FAST_QUAD, [-10.0, -5.0, 0.0, 5.0, 10.0], "fast_quad")),
        ("ppp_model.coverage_ul_fast_ms", "ms",
         _ppp_coverage("coverage_ppp_ul", FAST_QUAD, [-10.0, -5.0, 0.0, 5.0, 10.0], "fast_quad")),
        ("ppp_model.coverage_default_ms", "ms",
         _ppp_coverage("coverage_ppp_dl", {}, [0.0], "default quadrature")),
        ("ppp_model.ase_s", "s", _ase),
        ("ppp_model.mc_rayleigh_us_per_draw", "us", _mc_ppp("rayleigh")),
        ("ppp_model.mc_nearest_us_per_draw", "us", _mc_ppp("nearest")),
        ("hexgrid.mc_r4_us_per_draw", "us", _mc_macro(4, 5000)),
        ("hexgrid.mc_r30_us_per_draw", "us", _mc_macro(30, 800)),
        ("hexgrid.bruteforce_ns_per_sample", "ns", _bruteforce),
        ("config.run_overhead_ms", "ms", _run_overhead(outdir)),
    ]
