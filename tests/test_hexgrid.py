"""Tests for the hexagonal-lattice geometry and the macro Monte Carlo
estimators."""

import math
import sys
import tracemalloc

import numpy as np
import pytest

from tddgeom import (
    ConfigError,
    MacroNetwork,
    MobilePolar,
    PropagationParams,
    TddMix,
    bruteforce_isr_dl,
    bruteforce_isr_ul_dl,
    lattice_points,
    lattice_sum,
    macro_interference_draws,
    mc_coverage_macro,
    rng,
)
from tddgeom.hexgrid import _dist2_polar

DELTA = 1.0


def test_lattice_point_counts():
    for rings in (1, 2, 5, 8):
        pts = lattice_points(MacroNetwork(rings=rings))
        assert pts.size == 3 * rings * (rings + 1)
        # origin excluded, nearest ring at the inter-site distance
        assert np.min(np.abs(pts)) == pytest.approx(DELTA, rel=1e-14)


def test_first_ring_geometry():
    pts = lattice_points(MacroNetwork(rings=1))
    assert pts.size == 6
    np.testing.assert_allclose(np.abs(pts), DELTA, rtol=1e-14)
    angles = np.sort(np.mod(np.angle(pts), 2.0 * math.pi))
    np.testing.assert_allclose(angles, np.arange(6) * math.pi / 3.0, atol=1e-12)


def test_sixfold_rotation_symmetry():
    pts = lattice_points(MacroNetwork(rings=5))
    rotated = pts * complex(math.cos(math.pi / 3.0), math.sin(math.pi / 3.0))

    def canon(z):
        return np.sort_complex(np.round(z, 9))

    np.testing.assert_allclose(canon(rotated), canon(pts), atol=1e-8)


def test_lattice_sum_monotone_in_rings_and_tail_positive():
    bare = [lattice_sum(MacroNetwork(rings=r), 3.5, tail_correction=False) for r in (2, 4, 8, 16)]
    assert all(a < b for a, b in zip(bare, bare[1:]))
    full = lattice_sum(MacroNetwork(rings=4), 3.5, tail_correction=True)
    assert full > bare[1]


def test_lattice_sum_tail_correction_stabilizes():
    a = lattice_sum(MacroNetwork(rings=100), 3.5)
    b = lattice_sum(MacroNetwork(rings=400), 3.5)
    assert abs(a - b) < 5e-6 * abs(b)


def test_lattice_sum_spacing_invariance():
    # (delta/|s|)^z does not depend on the spacing itself
    a = lattice_sum(MacroNetwork(delta=1.0, rings=6), 3.0)
    b = lattice_sum(MacroNetwork(delta=2.5, rings=6), 3.0)
    assert math.isclose(a, b, rel_tol=1e-12)


def test_lattice_sum_divergent_exponent_rejected():
    with pytest.raises(ValueError):
        lattice_sum(MacroNetwork(), 2.0)
    with pytest.raises(ValueError):
        lattice_sum(MacroNetwork(), 1.5)


def test_isr_dl_center_and_symmetry():
    net = MacroNetwork(rings=30)
    prop = PropagationParams()
    assert bruteforce_isr_dl(MobilePolar(0.0), net, prop) == 0.0
    base = bruteforce_isr_dl(MobilePolar(0.3, 0.21), net, prop)
    for theta in (0.21 + math.pi / 3.0, 0.21 + math.pi, -0.21):
        other = bruteforce_isr_dl(MobilePolar(0.3, theta), net, prop)
        assert math.isclose(other, base, rel_tol=1e-12), theta


def test_isr_dl_power_level_cancels():
    net = MacroNetwork(rings=10)
    m = MobilePolar(0.25, 0.4)
    a = bruteforce_isr_dl(m, net, PropagationParams(p_dl_dbm=60.0))
    b = bruteforce_isr_dl(m, net, PropagationParams(p_dl_dbm=40.0))
    assert a == b


def test_dist2_polar_matches_the_complex_distance():
    rng = np.random.default_rng(7)
    n = 2000
    abs_w = rng.uniform(0.5, 3.0, n)
    half_arg_w = rng.uniform(-0.5 * math.pi, 0.5 * math.pi, n)
    rho = abs_w * rng.uniform(0.0, 1.5, n)
    u = rng.random(n)
    # a quarter lies near -w: rho within 1% of |w| and the angle
    # pi u - arg(w) / 2 within 0.02 to 0.05 of +-pi/2, where cos^2 nears
    # 0.  Nearer still, the rounding of that angle alone exceeds the
    # bound, in the cosine's square as in the complex difference.  A
    # last quarter puts the angle within 1e-7 of +-pi/2, where the
    # tangent nears 1e7, at any rho.
    near = slice(n // 2, 3 * n // 4)
    rho[near] = abs_w[near] * (1.0 + rng.uniform(-0.01, 0.01, n // 4))
    off = rng.uniform(0.04, 0.1, n // 4) * rng.choice([-1.0, 1.0], n // 4)
    u[near] = np.mod((2.0 * half_arg_w[near] + math.pi + off) / (2.0 * math.pi), 1.0)
    steep = slice(3 * n // 4, n)
    off = rng.uniform(-2e-7, 2e-7, n // 4)
    u[steep] = np.mod((2.0 * half_arg_w[steep] + math.pi + off) / (2.0 * math.pi), 1.0)
    # the complex distance in extended precision, so its own rounding near
    # -w stays far below the bound
    wide = np.longdouble
    w = abs_w.astype(wide) * np.exp(2j * half_arg_w.astype(wide))
    mobile = rho.astype(wide) * np.exp(2j * wide(math.pi) * u.astype(wide))
    reference = np.abs(w + mobile) ** 2
    got = _dist2_polar(abs_w, half_arg_w, rho, u)
    assert np.max(np.abs(got - reference) / reference) <= 1e-13
    # in place, on the buffers the samplers pass
    u_buf, tmp_buf = u.copy(), half_arg_w.copy()
    assert _dist2_polar(abs_w, tmp_buf, rho, u_buf, u_buf, tmp_buf) is u_buf
    np.testing.assert_array_equal(u_buf, got)


def test_isr_ul_dl_edge_cases_and_determinism():
    net = MacroNetwork(rings=6)
    prop = PropagationParams()
    assert bruteforce_isr_ul_dl(MobilePolar(0.0), net, prop, 100, seed=3) == (0.0, 0.0)
    m = MobilePolar(0.3, 0.1)
    first = bruteforce_isr_ul_dl(m, net, prop, 500, seed=3)
    again = bruteforce_isr_ul_dl(m, net, prop, 500, seed=3)
    assert first == again
    assert first[0] > 0.0 and first[1] > 0.0


def test_isr_ul_dl_linear_in_uplink_power():
    net = MacroNetwork(rings=6)
    m = MobilePolar(0.3, 0.1)
    lo = bruteforce_isr_ul_dl(m, net, PropagationParams(p_star_dbm=20.0), 400, seed=9)
    hi = bruteforce_isr_ul_dl(m, net, PropagationParams(p_star_dbm=30.0), 400, seed=9)
    assert math.isclose(hi[0] / lo[0], 10.0, rel_tol=1e-12)
    assert math.isclose(hi[1] / lo[1], 10.0, rel_tol=1e-12)


def test_isr_ul_dl_stderr_shrinks_with_samples():
    net = MacroNetwork(rings=6)
    prop = PropagationParams()
    m = MobilePolar(0.35, 0.5)
    _, se_small = bruteforce_isr_ul_dl(m, net, prop, 200, seed=5)
    _, se_large = bruteforce_isr_ul_dl(m, net, prop, 3200, seed=5)
    # 16x the samples should shrink the standard error about 4x
    assert 2.0 < se_small / se_large < 8.0


def test_macro_draws_decomposition():
    net = MacroNetwork(rings=3)
    prop = PropagationParams()
    mix = TddMix(alpha_d=0.5)
    draws = macro_interference_draws(net, prop, mix, "dl", 200, seed=2)
    total = draws["from_dl_sites"] + draws["from_ul_sites"]
    np.testing.assert_allclose(total, draws["i_total"], rtol=1e-12)
    # useful power is a deterministic function of the drawn radius
    np.testing.assert_allclose(
        draws["useful"], prop.p_dl_mw * draws["r_user"] ** (-prop.two_b), rtol=1e-12
    )


def test_macro_draws_pure_mixes():
    net = MacroNetwork(rings=3)
    prop = PropagationParams()
    dl_only = macro_interference_draws(net, prop, TddMix(alpha_d=1.0), "dl", 50, seed=4)
    assert np.all(dl_only["from_ul_sites"] == 0.0)
    ul_only = macro_interference_draws(net, prop, TddMix(alpha_d=0.0), "dl", 50, seed=4)
    assert np.all(ul_only["from_dl_sites"] == 0.0)


def test_macro_draws_chunk_invariance():
    net = MacroNetwork(rings=3)
    prop = PropagationParams()
    mix = TddMix(alpha_d=0.75)
    short = macro_interference_draws(net, prop, mix, "ul", 7, seed=11)
    long = macro_interference_draws(net, prop, mix, "ul", 17, seed=11)
    for key in short:
        np.testing.assert_array_equal(short[key], long[key][:7])


def test_macro_draws_validation():
    net = MacroNetwork(rings=2)
    prop = PropagationParams()
    with pytest.raises(ValueError):
        macro_interference_draws(net, prop, TddMix(), "sideways", 5, seed=0)


def test_mc_coverage_macro_matches_draw_decomposition():
    net = MacroNetwork(rings=3, load_eta=0.7)
    prop = PropagationParams()
    mix = TddMix(alpha_d=0.5)
    grid = np.arange(-10.0, 11.0, 5.0)
    n = 400
    curve = mc_coverage_macro(net, prop, mix, "dl", grid, n, seed=6)
    draws = macro_interference_draws(net, prop, mix, "dl", n, seed=6)
    sinr = draws["useful"] / (net.load_eta * draws["i_total"] + prop.p_noise_mw)
    expected = (sinr[:, None] > 10.0 ** (grid[None, :] / 10.0)).mean(axis=0)
    np.testing.assert_array_equal(curve.value, expected)


def test_mc_coverage_macro_shape_and_determinism():
    net = MacroNetwork(rings=2)
    prop = PropagationParams()
    mix = TddMix(alpha_d=1.0)
    grid = np.arange(-20.0, 21.0, 10.0)
    a = mc_coverage_macro(net, prop, mix, "ul", grid, 300, seed=8)
    b = mc_coverage_macro(net, prop, mix, "ul", grid, 300, seed=8)
    np.testing.assert_array_equal(a.value, b.value)
    np.testing.assert_array_equal(a.ci_halfwidth, b.ci_halfwidth)
    assert np.all((a.value >= 0.0) & (a.value <= 1.0))
    assert np.all(np.diff(a.value) <= 0.0)


def test_mc_coverage_macro_validation():
    net = MacroNetwork(rings=2)
    prop = PropagationParams()
    with pytest.raises(ConfigError):
        mc_coverage_macro(net, prop, TddMix(), "dl", [], 10, seed=0)
    with pytest.raises(ConfigError):
        mc_coverage_macro(net, prop, TddMix(), "dl", [0.0, -5.0], 10, seed=0)
    with pytest.raises(ValueError):
        mc_coverage_macro(net, prop, TddMix(), "dl", [0.0], 0, seed=0)


# the success counts of a rings-30 run, pinned so that a refactor of the
# sampler that moves any draw shows
_GOLDEN_COUNTS = {
    "dl": [1000, 1000, 1000, 856, 328, 105, 32],
    "ul": [102, 16, 0, 0, 0, 0, 0],
}


@pytest.mark.parametrize("direction", ["dl", "ul"])
def test_mc_coverage_macro_reproduces_its_seeded_counts(direction):
    curve = mc_coverage_macro(MacroNetwork(rings=30), PropagationParams(), TddMix(alpha_d=0.5), direction,
                              np.arange(-30.0, 31.0, 10.0), 1000, seed=17)
    counts = curve.value * 1000
    np.testing.assert_array_equal(counts, np.round(counts))
    assert counts.astype(int).tolist() == _GOLDEN_COUNTS[direction]


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="minor fault counts as Linux reports them")
@pytest.mark.parametrize("direction", ["dl", "ul"])
def test_mc_coverage_macro_reuses_its_buffers(direction):
    # a chunk that allocated its (draws x sites) arrays afresh took 20 to
    # 55 minor page faults per draw here; reused workspaces take about 3
    import resource

    def call():
        mc_coverage_macro(MacroNetwork(rings=30), PropagationParams(), TddMix(alpha_d=0.5), direction,
                          [0.0], 1000, seed=3)

    call()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    call()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 15 * 1000


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="minor fault counts as Linux reports them")
def test_bruteforce_isr_ul_dl_reuses_its_buffers():
    # chunks that allocated their (samples x sites) arrays afresh took
    # about 0.13 minor page faults per sample here; a workspace per worker
    # takes a fixed few hundred per call, about 0.016 per sample
    import resource

    def call():
        bruteforce_isr_ul_dl(MobilePolar(0.3, 0.1), MacroNetwork(), PropagationParams(), 40000, seed=5)

    call()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    call()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 0.05 * 40000


def _traced_peak_mb(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_bruteforce_isr_ul_dl_memory_does_not_grow_with_the_worker_count(monkeypatch):
    # 5000 samples span two of the one-worker chunks, so every worker of
    # four has chunks to take
    def call():
        bruteforce_isr_ul_dl(MobilePolar(0.3, 0.1), MacroNetwork(), PropagationParams(), 5000, seed=5)

    monkeypatch.setattr(rng, "workers", lambda: 1)
    one = _traced_peak_mb(call)
    monkeypatch.setattr(rng, "workers", lambda: 4)
    four = _traced_peak_mb(call)
    assert four <= one, (one, four)


def test_a_short_macro_run_sizes_its_workspace_to_its_draws():
    # a workspace of a whole chunk (1,092 draws at rings 4, two workers)
    # would take several MB
    peak = _traced_peak_mb(lambda: mc_coverage_macro(MacroNetwork(), PropagationParams(), TddMix(alpha_d=0.5), "dl",
                                                     [0.0], 10, seed=3))
    assert peak < 0.5, peak
