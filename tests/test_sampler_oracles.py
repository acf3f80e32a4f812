"""The Monte Carlo samplers against plain references.

Each reference reads the sampler's stream layout with one numpy call
per quantity and does its geometry in complex arithmetic, draw by draw:
the macro reference reads stream (seed, i) for draw i, and the PPP
reference reads stream (seed, c) for the draws of chunk c from a fresh
Philox advanced to each region of it.  The samplers read the same
numbers through merged calls and re-positioned streams and do the
geometry in real arithmetic, a chunk at a time, so every per-draw value
must agree to rounding.
"""

import itertools
import math
import sys
import threading
import time

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
    ppp_sampler,
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


def _philox(seed, index, block=0):
    """Stream (seed, index) from its definition, from counter block
    ``block`` on: a fresh Philox advanced by index * 2**40 + block."""
    bitgen = np.random.Philox(key=np.uint64(seed))
    bitgen.advance(index * 2**40 + block)
    return np.random.Generator(bitgen)


def _ppp_reference(scenario, direction, n_draws, seed, association="rayleigh", serving_r=None):
    """useful, from_dl, from_ul and distance, one chunk at a time.

    Chunk c of C draws reads stream (seed, c): C serving exponentials,
    C serving fades and C Poisson counts, then each kind of pair number
    from block k 2**36 on, in draw order: the position radius, position
    angle, direction flag and offset angle uniforms (k = 1 to 4), the
    offset and fade exponentials (k = 5, 6)."""
    chunk = ppp_sampler._CHUNK_DRAWS
    lam_pi = scenario.lam * math.pi
    w = scenario.window_radius
    prop = scenario.prop
    two_b = prop.two_b
    bk = prop.b * prop.k
    p_dl, p_ul = scenario.p_small_mw, scenario.p_small_star_mw
    nearest = association == "nearest"
    out = np.empty((4, n_draws))
    for c in range(math.ceil(n_draws / chunk)):
        gen = _philox(seed, c)
        serving_exp = gen.standard_exponential(chunk)
        serving_fade = gen.standard_exponential(chunk)
        counts = gen.poisson(lam_pi * w * w, chunk)
        m = min(chunk, n_draws - c * chunk)
        total = counts[:m].sum()
        radius_u, angle_u, flag_u, phi_u = (_philox(seed, c, k * 2**36).random(total) for k in (1, 2, 3, 4))
        offset_e, fade_e = (_philox(seed, c, k * 2**36).standard_exponential(total) for k in (5, 6))
        first = 0
        for j in range(m):
            pairs = slice(first, first + counts[j])
            first += counts[j]
            pos = w * np.sqrt(radius_u[pairs]) * np.exp(2j * math.pi * angle_u[pairs])
            is_dl = flag_u[pairs] < scenario.mix.alpha_d
            rho = np.sqrt(offset_e[pairs] / lam_pi)
            fades = fade_e[pairs]
            # the serving distance, or for nearest association the own user's offset
            r = math.sqrt(serving_exp[j] / lam_pi) if serving_r is None else serving_r

            cell_dist = np.abs(pos)
            if not nearest:
                keep = cell_dist > r
            else:
                keep = np.ones(pos.size, dtype=bool)
                if direction == "dl" and pos.size > 0:
                    nearest_cell = int(np.argmin(cell_dist))
                    r = float(cell_dist[nearest_cell])
                    keep[nearest_cell] = False
            on_dl = keep & is_dl
            on_ul = keep & ~is_dl
            user_dist = np.abs(pos[on_ul] + rho[on_ul] * np.exp(2j * math.pi * phi_u[pairs][on_ul]))
            from_dl = p_dl * float(np.sum(fades[on_dl] * cell_dist[on_dl] ** (-two_b)))
            from_ul = p_ul * float(np.sum(fades[on_ul] * rho[on_ul] ** (2.0 * bk) * user_dist ** (-two_b)))
            if direction == "dl":
                useful = p_dl * serving_fade[j] * r ** (-two_b)
            else:
                useful = p_ul * serving_fade[j] * r ** (-two_b * (1.0 - prop.k))
            out[:, c * chunk + j] = useful, from_dl, from_ul, r
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
    that a run spans several chunks and ends unevenly."""
    if request.param == "small":
        monkeypatch.setattr(ppp_sampler, "_CHUNK_DRAWS", 8)
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
    draws = ppp_sampler._sample(sc, "dl", 60, 3, association="nearest")
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


def test_ppp_laplace_error_survives_a_transform_near_one():
    # every exp(-v I) here lies within 3e-7 of 1, where the one-pass
    # E[val^2] - mean^2 cancels to 0; the deviations are about 5e-9, so
    # rounding of the values leaves the error about 1e-8 relative
    sc = SmallCellScenario(lam=10.0, mix=TddMix(alpha_d=0.5))
    _, from_dl, from_ul, _ = _ppp_reference(sc, "dl", 4000, 15, serving_r=0.1)
    val = np.exp(-1e-3 * (from_dl + from_ul))
    mean, se = mc_laplace_ppp(1e-3, 0.1, sc, "dl", 4000, 15)
    _assert_close(mean, val.mean())
    assert se == pytest.approx(val.std() / math.sqrt(4000), rel=1e-6)


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
    # the macro draws only: the PPP chunk size is part of its stream layout
    net, prop, mix = MacroNetwork(rings=3), PropagationParams(), TddMix(alpha_d=0.5)
    whole_macro = macro_interference_draws(net, prop, mix, "dl", 50, 9)
    monkeypatch.setattr(hexgrid, "_CHUNK", 200)
    for key, value in macro_interference_draws(net, prop, mix, "dl", 50, 9).items():
        assert np.array_equal(value, whole_macro[key])


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_worker_count_leaves_every_result_bit_identical(chunking, monkeypatch, workers):
    net, prop, mix = MacroNetwork(rings=3), PropagationParams(k=0.4), TddMix(alpha_d=0.5)
    sc = SmallCellScenario(lam=10.0, mix=mix)
    m = MobilePolar(0.3, 0.1)
    grid = np.linspace(-10.0, 20.0, 7)

    def results():
        return [*macro_interference_draws(net, prop, mix, "ul", 47, 13).values(),
                mc_coverage_macro(net, prop, mix, "dl", grid, 47, 13).value,
                bruteforce_isr_ul_dl(m, net, prop, 123, seed=4),
                *ppp_interference_draws(sc, "ul", 47, 13).values(),
                *(mc_sinr_ppp(sc, "dl", 47, 13, association) for association in ("rayleigh", "nearest"))]

    expected = results()
    monkeypatch.setattr(rng, "workers", lambda: workers)
    for value, reference in zip(results(), expected, strict=True):
        assert np.array_equal(value, reference)


@pytest.mark.parametrize("budget", [150, 1 << 15, None], ids=["150", "2**15", "default"])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_bruteforce_is_bit_identical_under_any_budget_and_worker_count(monkeypatch, budget, workers):
    # 2,500 samples end in a partial block, and at every budget and
    # worker count they span several chunks
    m, net, prop = MobilePolar(0.3, 0.1), MacroNetwork(), PropagationParams()
    expected = bruteforce_isr_ul_dl(m, net, prop, 2500, seed=4)
    if budget is not None:
        monkeypatch.setattr(hexgrid, "_CHUNK", budget)
    monkeypatch.setattr(rng, "workers", lambda: workers)
    assert bruteforce_isr_ul_dl(m, net, prop, 2500, seed=4) == expected


def test_bruteforce_under_thread_switch_stress_matches_one_worker(monkeypatch):
    # eight workers that the interpreter switches between every
    # microsecond, each on a workspace of its own, for half a second
    m, net, prop = MobilePolar(0.3, 0.1), MacroNetwork(), PropagationParams()
    monkeypatch.setattr(rng, "workers", lambda: 1)
    expected = bruteforce_isr_ul_dl(m, net, prop, 3000, seed=7)
    monkeypatch.setattr(rng, "workers", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        deadline = time.monotonic() + 0.5
        runs = 0
        while runs == 0 or time.monotonic() < deadline:
            assert bruteforce_isr_ul_dl(m, net, prop, 3000, seed=7) == expected
            runs += 1
    finally:
        sys.setswitchinterval(interval)


# ---------------------------------------------------------------------------
# bad draw counts and failing chunks


_COUNT_CALLS = {
    "macro draws": lambda n, seed: macro_interference_draws(MacroNetwork(rings=2), PropagationParams(), TddMix(), "dl",
                                                            n, seed),
    "macro coverage": lambda n, seed: mc_coverage_macro(MacroNetwork(rings=2), PropagationParams(), TddMix(), "dl",
                                                        [0.0], n, seed),
    "ppp draws": lambda n, seed: ppp_interference_draws(SmallCellScenario(lam=10.0), "dl", n, seed),
    "ppp sinr": lambda n, seed: mc_sinr_ppp(SmallCellScenario(lam=10.0), "ul", n, seed, "nearest"),
    "bruteforce": lambda n, seed: bruteforce_isr_ul_dl(MobilePolar(0.3, 0.1), MacroNetwork(rings=2),
                                                       PropagationParams(), n, seed),
}


@pytest.mark.parametrize("call", _COUNT_CALLS.values(), ids=_COUNT_CALLS.keys())
@pytest.mark.parametrize("count, seed, error", [
    (True, 1, TypeError), (2.5, 1, TypeError), (np.float64(3.0), 1, TypeError), ("10", 1, TypeError),
    (0, 1, ValueError), (-4, 1, ValueError), (10, -1, ValueError), (10, 2**64, ValueError), (10, True, TypeError),
], ids=["True-TypeError", "2.5-TypeError", "count2-TypeError", "10-TypeError", "0-ValueError", "-4-ValueError",
        "seed-minus-1-ValueError", "seed-2**64-ValueError", "seed-True-TypeError"])
def test_bad_draw_counts_fail_fast(monkeypatch, call, count, seed, error):
    # a bad draw count or seed is refused before any worker pool starts
    def no_pool(job, items, workspace):
        raise AssertionError("a worker pool started")

    monkeypatch.setattr(rng, "chunk_map", no_pool)
    with pytest.raises(error):
        call(count, seed)


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
