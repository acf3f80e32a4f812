"""The Monte Carlo samplers against plain per-draw references.

Each reference reads the same stream (seed, i) per draw with one numpy
call per quantity and does its geometry in complex arithmetic, draw by
draw.  The samplers read the same numbers through merged calls into
chunk buffers and do the geometry in real arithmetic, a chunk at a
time, so every per-draw value must agree to rounding.
"""

import itertools
import math
import threading

import numpy as np
import pytest

from tddgeom import (
    MacroNetwork,
    MobilePolar,
    PropagationParams,
    SmallCellScenario,
    TddMix,
    bruteforce_isr_ul_dl,
    hexgrid,
    lattice_points,
    macro_interference_draws,
    mc_coverage_macro,
    mc_laplace_ppp,
    mc_sinr_ppp,
    ppp_interference_draws,
    ppp_model,
    rng,
)

REL = 1e-10


def _assert_close(actual, expected):
    actual, expected = np.asarray(actual, float), np.asarray(expected, float)
    assert actual.shape == expected.shape
    scale = np.maximum(np.abs(actual), np.abs(expected))
    gap = np.where(actual == expected, 0.0, np.abs(actual - expected))
    assert np.all(gap <= REL * scale), float(np.max(gap / np.where(scale > 0, scale, 1.0)))


# ---------------------------------------------------------------------------
# references


def _ppp_reference(scenario, direction, n_draws, seed, association="rayleigh", serving_r=None):
    """useful, from_dl, from_ul and distance, one draw at a time."""
    lam_pi = scenario.lam * math.pi
    w = scenario.window_radius
    prop = scenario.prop
    two_b = prop.two_b
    bk = prop.b * prop.k
    p_dl, p_ul = scenario.p_small_mw, scenario.p_small_star_mw
    nearest = association == "nearest"
    out = np.empty((4, n_draws))
    for i in range(n_draws):
        gen = rng.stream(seed, i)
        r = serving_r
        if r is None and not nearest:
            r = math.sqrt(gen.standard_exponential() / lam_pi)
        n = gen.poisson(lam_pi * w * w)
        pos = w * np.sqrt(gen.random(n)) * np.exp(2j * math.pi * gen.random(n))
        is_dl = gen.random(n) < scenario.mix.alpha_d
        rho = np.sqrt(gen.standard_exponential(n) / lam_pi)
        phi = 2.0 * math.pi * gen.random(n)
        if nearest:
            rho0 = math.sqrt(gen.standard_exponential() / lam_pi)
            gen.random()
        serving_fade = gen.standard_exponential()
        fades = gen.standard_exponential(n)

        cell_dist = np.abs(pos)
        if not nearest:
            keep = cell_dist > r
        else:
            keep = np.ones(n, dtype=bool)
            r = rho0
            if direction == "dl" and n > 0:
                j = int(np.argmin(cell_dist))
                r = float(cell_dist[j])
                keep[j] = False
        on_dl = keep & is_dl
        on_ul = keep & ~is_dl
        user_dist = np.abs(pos[on_ul] + rho[on_ul] * np.exp(1j * phi[on_ul]))
        from_dl = p_dl * float(np.sum(fades[on_dl] * cell_dist[on_dl] ** (-two_b)))
        from_ul = p_ul * float(np.sum(fades[on_ul] * rho[on_ul] ** (2.0 * bk) * user_dist ** (-two_b)))
        if direction == "dl":
            useful = p_dl * serving_fade * r ** (-two_b)
        else:
            useful = p_ul * serving_fade * r ** (-two_b * (1.0 - prop.k))
        out[:, i] = useful, from_dl, from_ul, r
    return out


def _macro_reference(net, prop, mix, direction, n_draws, seed):
    """useful, from_dl_sites, from_ul_sites and r_user, one draw at a time."""
    sites = lattice_points(net)
    ns = sites.size
    radius = net.cell_radius
    two_b = prop.two_b
    out = np.empty((4, n_draws))
    for i in range(n_draws):
        vals = rng.stream(seed, i).random(2 + 3 * ns)
        r = radius * math.sqrt(vals[0])
        is_dl = vals[2 : 2 + ns] < mix.alpha_d
        rho = radius * np.sqrt(vals[2 + ns : 2 + 2 * ns])
        mobiles = sites + rho * np.exp(1j * 2.0 * math.pi * vals[2 + 2 * ns :])
        target = r * np.exp(2j * math.pi * vals[1]) if direction == "dl" else 0.0
        cell_term = prop.p_dl_mw * np.abs(sites - target) ** (-two_b)
        mobile_term = prop.p_star_mw * rho ** (2 * prop.b * prop.k) * np.abs(mobiles - target) ** (-two_b)
        if direction == "dl":
            useful = prop.p_dl_mw * r ** (-two_b)
        else:
            useful = prop.p_star_mw * r ** (-two_b * (1 - prop.k))
        out[:, i] = useful, cell_term[is_dl].sum(), mobile_term[~is_dl].sum(), r
    return out


def _bruteforce_reference(m, net, prop, n_samples, seed):
    """The sampled part of bruteforce_isr_ul_dl: the per-sample mean and
    its standard error, before the common scale."""
    sites = lattice_points(net)
    u = rng.stream(seed, 0).random((n_samples, sites.size, 2))
    rho = net.cell_radius * np.sqrt(u[..., 0])
    pos = sites + rho * np.exp(2j * math.pi * u[..., 1])
    per = np.sum(rho ** (2.0 * prop.b * prop.k) * np.abs(pos - m.position()) ** (-prop.two_b), axis=1)
    mean = per.mean()
    return mean, math.sqrt(max((per**2).mean() - mean**2, 0.0) / n_samples)


# ---------------------------------------------------------------------------
# PPP sampler


@pytest.fixture(params=["default", "small"])
def chunking(request, monkeypatch):
    """Run each sampler with its own chunk sizes and with tiny ones, so
    that chunks flush mid-run, end unevenly and overflow on one draw."""
    if request.param == "small":
        monkeypatch.setattr(ppp_model, "_SAMPLE_CHUNK", 40)
        monkeypatch.setattr(hexgrid, "_CHUNK", 150)
    return request.param


@pytest.mark.parametrize("alpha_d", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("direction", ["dl", "ul"])
def test_ppp_draws_match_reference(chunking, alpha_d, direction):
    sc = SmallCellScenario(lam=10.0, mix=TddMix(alpha_d=alpha_d))
    ref = _ppp_reference(sc, direction, 37, 5)
    got = ppp_interference_draws(sc, direction, 37, 5)
    for key, row in zip(("useful", "from_dl_pairs", "from_ul_pairs", "serving_distance"), ref):
        _assert_close(got[key], row)
    _assert_close(got["i_total"], ref[1] + ref[2])


@pytest.mark.parametrize("association", ["rayleigh", "nearest"])
@pytest.mark.parametrize("direction", ["dl", "ul"])
def test_ppp_sinr_matches_reference(chunking, association, direction):
    # a narrow window leaves about half of the draws with no cell
    for sc in (SmallCellScenario(lam=10.0, mix=TddMix(alpha_d=0.5)),
               SmallCellScenario(lam=0.05, window_radius=2.0, mix=TddMix(alpha_d=0.5))):
        useful, from_dl, from_ul, _ = _ppp_reference(sc, direction, 41, 6, association)
        _assert_close(mc_sinr_ppp(sc, direction, 41, 6, association),
                      useful / (from_dl + from_ul + sc.p_noise_mw))


def test_ppp_empty_draws_keep_their_fallbacks():
    sc = SmallCellScenario(lam=0.05, window_radius=2.0, mix=TddMix(alpha_d=0.5))
    draws = ppp_model._sample(sc, "dl", 60, 3, association="nearest")
    ref = _ppp_reference(sc, "dl", 60, 3, "nearest")
    empty = ref[1] + ref[2] == 0.0
    assert 10 < empty.sum() < 60
    for got, expected in zip(draws, ref):
        _assert_close(got, expected)


def test_ppp_laplace_matches_reference(chunking):
    sc = SmallCellScenario(lam=10.0, mix=TddMix(alpha_d=0.5))
    _, from_dl, from_ul, distance = _ppp_reference(sc, "dl", 33, 8, serving_r=0.1)
    assert np.all(distance == 0.1)
    val = np.exp(-1e8 * (from_dl + from_ul))
    mean, se = mc_laplace_ppp(1e8, 0.1, sc, "dl", 33, 8)
    _assert_close([mean, se], [val.mean(), math.sqrt(max((val**2).mean() - val.mean() ** 2, 0.0) / 33)])


# ---------------------------------------------------------------------------
# macro sampler and brute-force ISR


@pytest.mark.parametrize("alpha_d", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("direction", ["dl", "ul"])
@pytest.mark.parametrize("k", [0.0, 0.4])
def test_macro_draws_match_reference(chunking, alpha_d, direction, k):
    net, prop, mix = MacroNetwork(rings=3), PropagationParams(k=k), TddMix(alpha_d=alpha_d)
    ref = _macro_reference(net, prop, mix, direction, 29, 11)
    got = macro_interference_draws(net, prop, mix, direction, 29, 11)
    for key, row in zip(("useful", "from_dl_sites", "from_ul_sites", "r_user"), ref):
        _assert_close(got[key], row)
    _assert_close(got["i_total"], ref[1] + ref[2])


@pytest.mark.parametrize("x, theta", [(0.3, 0.1), (0.5, 0.4), (0.05, 0.0)])
def test_bruteforce_matches_reference(chunking, x, theta):
    m, net, prop = MobilePolar(x, theta), MacroNetwork(rings=10), PropagationParams()
    est, se = bruteforce_isr_ul_dl(m, net, prop, 123, seed=4, tail_correction=False)
    mean, se_ref = _bruteforce_reference(m, net, prop, 123, seed=4)
    scale = prop.p_star_over_p * m.r**prop.two_b
    _assert_close([est, se], [scale * mean, scale * se_ref])


def test_chunking_leaves_every_draw_bit_identical(monkeypatch):
    sc = SmallCellScenario(lam=10.0, mix=TddMix(alpha_d=0.5))
    net, prop, mix = MacroNetwork(rings=3), PropagationParams(), TddMix(alpha_d=0.5)
    whole_ppp = ppp_model._sample(sc, "dl", 50, 9, association="nearest")
    whole_macro = macro_interference_draws(net, prop, mix, "dl", 50, 9)
    monkeypatch.setattr(ppp_model, "_SAMPLE_CHUNK", 70)
    monkeypatch.setattr(hexgrid, "_CHUNK", 200)
    for a, b in zip(whole_ppp, ppp_model._sample(sc, "dl", 50, 9, association="nearest")):
        assert np.array_equal(a, b)
    for key, value in macro_interference_draws(net, prop, mix, "dl", 50, 9).items():
        assert np.array_equal(value, whole_macro[key])


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_worker_count_leaves_every_result_bit_identical(chunking, monkeypatch, workers):
    net, prop, mix = MacroNetwork(rings=3), PropagationParams(k=0.4), TddMix(alpha_d=0.5)
    m = MobilePolar(0.3, 0.1)
    grid = np.linspace(-10.0, 20.0, 7)
    expected = (macro_interference_draws(net, prop, mix, "ul", 47, 13),
                mc_coverage_macro(net, prop, mix, "dl", grid, 47, 13).value,
                bruteforce_isr_ul_dl(m, net, prop, 123, seed=4))
    monkeypatch.setattr(rng, "workers", lambda: workers)
    draws = macro_interference_draws(net, prop, mix, "ul", 47, 13)
    assert draws.keys() == expected[0].keys()
    for key, value in draws.items():
        assert np.array_equal(value, expected[0][key])
    assert np.array_equal(mc_coverage_macro(net, prop, mix, "dl", grid, 47, 13).value, expected[1])
    assert bruteforce_isr_ul_dl(m, net, prop, 123, seed=4) == expected[2]


# ---------------------------------------------------------------------------
# bad draw counts and failing chunks


_COUNT_CALLS = {
    "macro draws": lambda n: macro_interference_draws(MacroNetwork(rings=2), PropagationParams(), TddMix(), "dl", n, 1),
    "macro coverage": lambda n: mc_coverage_macro(MacroNetwork(rings=2), PropagationParams(), TddMix(), "dl", [0.0], n, 1),
    "ppp draws": lambda n: ppp_interference_draws(SmallCellScenario(lam=10.0), "dl", n, 1),
    "ppp sinr": lambda n: mc_sinr_ppp(SmallCellScenario(lam=10.0), "ul", n, 1, "nearest"),
    "bruteforce": lambda n: bruteforce_isr_ul_dl(MobilePolar(0.3, 0.1), MacroNetwork(rings=2), PropagationParams(), n, 1),
}


@pytest.mark.parametrize("call", _COUNT_CALLS.values(), ids=_COUNT_CALLS.keys())
@pytest.mark.parametrize("count, error", [(True, TypeError), (2.5, TypeError), (np.float64(3.0), TypeError),
                                          ("10", TypeError), (0, ValueError), (-4, ValueError)])
def test_bad_draw_counts_fail_fast(monkeypatch, call, count, error):
    def no_pool(job, items):
        raise AssertionError("a worker pool started")

    monkeypatch.setattr(rng, "chunk_map", no_pool)
    with pytest.raises(error):
        call(count)


def test_a_failing_chunk_fails_loudly_and_leaves_no_thread(monkeypatch):
    calls = itertools.count(1)
    build = hexgrid._macro_chunk
    boom = RuntimeError("chunk 2 failed")

    def failing(*args):
        if next(calls) == 2:
            raise boom
        return build(*args)

    monkeypatch.setattr(hexgrid, "_CHUNK", 150)
    monkeypatch.setattr(hexgrid, "_macro_chunk", failing)
    threads = threading.active_count()
    with pytest.raises(RuntimeError) as info:
        mc_coverage_macro(MacroNetwork(rings=2), PropagationParams(), TddMix(alpha_d=0.5), "dl", [0.0], 40, 1)
    assert info.value is boom
    assert threading.active_count() == threads
