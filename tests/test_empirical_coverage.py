"""Tests for the one coverage reduction that both Monte Carlo samplers
use: its counts, and the memory it takes on a large threshold grid."""

import tracemalloc

import numpy as np
import pytest

from tddgeom import (
    CoverageCurve,
    MacroNetwork,
    PropagationParams,
    SmallCellScenario,
    TddMix,
    mc_coverage_macro,
    mc_coverage_ppp,
)
from tddgeom.params import check_gamma_grid, empirical_coverage


def test_reduction_equals_the_broadcast_count():
    gen = np.random.default_rng(4)
    grid = check_gamma_grid(np.linspace(-20.0, 20.0, 41))
    gamma_lin = 10.0 ** (grid / 10.0)
    # draws at exactly a threshold (a tie is not covered), NaN (never
    # covered), +inf (always covered), zero and spread values
    sinr = np.concatenate((gamma_lin[::4], [np.nan, np.inf, 0.0, np.nan, np.inf],
                           10.0 ** gen.uniform(-2.5, 2.5, 300), gamma_lin[3:9]))
    gen.shuffle(sinr)
    expected = (sinr[:, None] > gamma_lin[None, :]).sum(axis=0)
    # uneven chunks, one of them empty
    parts = np.split(sinr, [7, 7, 120, 121, 250])
    curve = empirical_coverage(grid, parts, sinr.size)
    value = expected / sinr.size
    np.testing.assert_array_equal(curve.value, value)
    np.testing.assert_array_equal(curve.ci_halfwidth, 1.96 * np.sqrt(value * (1.0 - value) / sinr.size))
    np.testing.assert_array_equal(curve.gamma_db, grid)
    whole = empirical_coverage(grid, [sinr], sinr.size)
    np.testing.assert_array_equal(whole.value, curve.value)


def _traced_peak_mb(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("sampler", ["ppp", "macro"])
def test_a_large_grid_adds_no_draws_by_thresholds_array(sampler):
    # the counts once held a (draws x thresholds) boolean array: 184 MB
    # more at 10,000 thresholds and 20,000 PPP draws, and 20 MB more
    # for the macro sampler at rings 4, one chunk at a time
    if sampler == "ppp":
        scenario = SmallCellScenario(mix=TddMix(alpha_d=0.5))

        def coverage(grid):
            return mc_coverage_ppp(scenario, "dl", grid, 20_000, seed=1)
    else:
        def coverage(grid):
            return mc_coverage_macro(MacroNetwork(rings=4), PropagationParams(), TddMix(alpha_d=0.5), "dl",
                                     grid, 20_000, seed=1)

    coverage([0.0])  # warm the imports and caches outside the trace
    one = _traced_peak_mb(lambda: coverage([0.0]))
    many = _traced_peak_mb(lambda: coverage(np.linspace(-30.0, 30.0, 10_000)))
    assert many - one < 5.0, (one, many)


@pytest.mark.parametrize("gamma_db, value, half, message", [
    ([], [], [], "gamma_db must be a nonempty 1-d grid"),
    ([[0.0, 5.0]], [[0.5, 0.4]], [[0.1, 0.1]], "gamma_db must be a nonempty 1-d grid"),
    ([0.0, 5.0], [0.5], [0.1, 0.1], "value and ci_halfwidth must match the grid shape"),
    ([0.0, 5.0], [0.5, 0.4], [[0.1, 0.1]], "value and ci_halfwidth must match the grid shape"),
], ids=["empty-grid", "2-d-grid", "short-values", "2-d-halfwidths"])
def test_coverage_curve_refuses_values_that_do_not_match_its_grid(gamma_db, value, half, message):
    with pytest.raises(ValueError, match=message):
        CoverageCurve(gamma_db, value, half)
