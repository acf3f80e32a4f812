"""Tests for the Gauss-Legendre and nested Gauss-Kronrod rules and
their refinement."""

import ast
import os

import numpy as np
import pytest

import tddgeom
from tddgeom.errors import IntegrationError
from tddgeom.quadrules import _newton, gauss_kronrod, gauss_kronrod_unit, gauss_legendre, refine


@pytest.mark.parametrize("n", [24, 32, 48, 64])
def test_gauss_kronrod_pair(n):
    nodes, weights = gauss_kronrod(n)
    assert nodes.shape == (2 * n + 1,) and weights.shape == (2, 2 * n + 1)
    assert np.all(np.diff(nodes) > 0)
    # K(2n+1) integrates every Legendre polynomial to degree 3n + 1
    # exactly, and the next one (3n + 2, even) not
    moments = weights[0] @ np.polynomial.legendre.legvander(nodes, 3 * n + 2)
    np.testing.assert_allclose(moments[: 3 * n + 2], np.r_[2.0, np.zeros(3 * n + 1)],
                               rtol=0, atol=1e-14)
    assert abs(moments[3 * n + 2]) > 1e-6
    assert np.all(weights[0] > 0)
    # the Gauss subset is G(n), on every other node, interlaced by the
    # Kronrod-only nodes
    gauss = weights[1] != 0
    np.testing.assert_array_equal(gauss, np.arange(2 * n + 1) % 2 == 1)
    ref_nodes, ref_weights = np.polynomial.legendre.leggauss(n)
    np.testing.assert_allclose(nodes[gauss], ref_nodes, rtol=0, atol=1e-15)
    # leggauss's own weights are off by up to 4e-15 from 40-digit values
    np.testing.assert_allclose(weights[1][gauss], ref_weights, rtol=0, atol=1e-14)
    assert np.all(weights[1][gauss] > 0)
    # the unit-interval copy keeps the weight sums
    t, w = gauss_kronrod_unit(n)
    np.testing.assert_allclose(w.sum(axis=1), 1.0, rtol=0, atol=1e-14)


@pytest.mark.parametrize("n", [16, 24, 48])
def test_gauss_legendre_matches_numpy(n):
    nodes, weights = gauss_legendre(n)
    ref_nodes, ref_weights = np.polynomial.legendre.leggauss(n)
    np.testing.assert_allclose(nodes, ref_nodes, rtol=0, atol=1e-15)
    np.testing.assert_allclose(weights, ref_weights, rtol=0, atol=1e-14)
    moments = weights @ np.polynomial.legendre.legvander(nodes, 2 * n - 1)
    np.testing.assert_allclose(moments, np.r_[2.0, np.zeros(2 * n - 1)], rtol=0, atol=1e-14)
    # the Gauss subset of the Kronrod pair is this rule, bit for bit
    k_nodes, k_weights = gauss_kronrod(n)
    gauss = k_weights[1] != 0
    np.testing.assert_array_equal(k_nodes[gauss], nodes)
    np.testing.assert_array_equal(k_weights[1][gauss], weights)


def test_gauss_kronrod_interlaces_and_stays_positive_at_every_order_reached():
    # the coarse orders of FAST_QUAD and of the default quadrature, their
    # doublings, small and odd orders, and one large order
    for n in list(range(1, 34)) + [48, 96, 128, 192, 256, 1024]:
        nodes, weights = gauss_kronrod(n)
        assert np.all(np.diff(nodes) > 0) and -1.0 < nodes[0] and nodes[-1] < 1.0, n
        np.testing.assert_array_equal(weights[1] != 0, np.arange(2 * n + 1) % 2 == 1)
        assert np.all(weights[0] > 0) and np.all(weights[1][1::2] > 0), n
        assert abs(weights[0].sum() - 2.0) < 1e-13 and abs(weights[1].sum() - 2.0) < 1e-13, n
        # odd moments vanish by symmetry; the even ones are 2 / (j + 1)
        assert abs(weights[0] @ nodes ** 2 - 2.0 / 3.0) < 1e-13, n


def _items(err, calls):
    """An estimate whose item i has K = 10 (i + 1) + level and
    |K - G| = err[i] / 4^level, recording each call in calls."""
    def estimate(level, todo):
        calls.append((level, todo.tolist()))
        fine = 10.0 * (todo + 1) + level
        return fine, fine + err[todo] / 4.0**level

    return estimate


def _failure(i):
    return f"item {i} not converged"


def test_refine_doubles_only_the_failing_items_and_reports_the_last_failures():
    # a NaN discrepancy never passes
    calls = []
    estimate = _items(np.array([2.0**-10, 2.0**-30, 1.0, np.nan, 2.0**-17]), calls)
    with pytest.raises(IntegrationError, match="^item 0 not converged$") as excinfo:
        refine(estimate, 5, lambda fine: 2.0**-20, 2, _failure)
    assert calls == [(0, [0, 1, 2, 3, 4]), (1, [0, 2, 3, 4]), (2, [0, 2, 3, 4])]
    # the first item still open raises, with the Kronrod value and the
    # |K - G| of its last level
    assert excinfo.value.achieved == 12.0 and excinfo.value.discrepancy == 2.0**-14
    calls.clear()
    with pytest.raises(IntegrationError, match="^item 1 not converged$") as excinfo:
        refine(_items(np.array([2.0**-30, np.nan]), calls), 2, lambda fine: 1e300, 1, _failure)
    assert calls == [(0, [0, 1]), (1, [1])]
    assert excinfo.value.achieved == 21.0 and np.isnan(excinfo.value.discrepancy)
    # each item keeps the Kronrod value of the level at which it passed
    calls.clear()
    values = refine(_items(np.array([2.0**-21, 2.0**-19, 2.0**-17]), calls), 3, lambda fine: 2.0**-20, 2, _failure)
    assert calls == [(0, [0, 1, 2]), (1, [1, 2]), (2, [2])]
    np.testing.assert_array_equal(values, [10.0, 21.0, 32.0])
    # a bound relative to the Kronrod value: both items pass at once
    calls.clear()
    values = refine(estimate, 2, lambda fine: 1e-3 * fine, 5, _failure)
    assert calls == [(0, [0, 1])]
    np.testing.assert_array_equal(values, [10.0, 20.0])
    # no refinement: one level, and the first failure of that level
    calls.clear()
    with pytest.raises(IntegrationError, match="^item 0 not converged$") as excinfo:
        refine(estimate, 3, lambda fine: 2.0**-20, 0, _failure)
    assert calls == [(0, [0, 1, 2])]
    assert excinfo.value.achieved == 10.0 and excinfo.value.discrepancy == 2.0**-10


def _owners_of_calls(path, name):
    """The innermost function (or "<module>") around each call of the
    name in a source file."""
    with open(path, "rb") as fh:
        tree = ast.parse(fh.read(), path)
    owners = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == name:
                    owners.append(owner)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
            elif isinstance(child, ast.Lambda):
                visit(child, "<lambda>")
            else:
                visit(child, owner)

    visit(tree, "<module>")
    return owners


def test_only_refine_forms_an_integration_error():
    # refine raises the error of every integral it leaves unconverged,
    # so no caller unpacks a failure to write its own; the one other
    # error is the refusal of an infinite spectral efficiency, which no
    # quadrature could meet
    package = os.path.dirname(os.path.abspath(tddgeom.__file__))
    found = [f"{name}:{owner}" for name in sorted(os.listdir(package)) if name.endswith(".py")
             for owner in _owners_of_calls(os.path.join(package, name), "IntegrationError")]
    assert found == ["ppp_ase.py:ase", "quadrules.py:refine"]


@pytest.mark.parametrize("step", [np.ones_like, lambda x: np.full_like(x, np.nan)], ids=["constant-step", "nan-step"])
def test_newton_raises_when_its_steps_do_not_shrink(step):
    # 50 steps none of which falls to 1e-10: no node set is returned
    with pytest.raises(ArithmeticError, match="quadrature nodes did not converge"):
        _newton(np.array([0.25, 0.5]), step)
