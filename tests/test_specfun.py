"""Tests for the special-function layer: series summation,
Hurwitz/Riemann zeta, the hexagonal zeta combination, shadowing."""

import itertools
import math

import numpy as np
import pytest
import scipy.special

from tddgeom import (
    SeriesControl,
    ShadowingSpec,
    TruncationError,
    hurwitz_zeta,
    omega,
    shadowing_mean_factor,
    sum_series,
)
from tddgeom import rng


def test_series_control_validation():
    with pytest.raises(ValueError):
        SeriesControl(rel_tol=0.0)
    with pytest.raises(ValueError):
        SeriesControl(rel_tol=-1e-3)
    with pytest.raises(ValueError):
        SeriesControl(max_terms=0)


def test_sum_series_geometric():
    # sum q^n from n=0 is 1/(1-q); the stopping rule leaves a tail of
    # order rel_tol / (1 - q)
    for q in (0.5, 0.9, -0.6):
        total = sum_series(q**n for n in itertools.count())
        assert math.isclose(total, 1.0 / (1.0 - q), rel_tol=1e-8)
    tight = SeriesControl(rel_tol=1e-14, max_terms=1000)
    total = sum_series((0.5**n for n in itertools.count()), tight)
    assert math.isclose(total, 2.0, rel_tol=1e-13)


def test_sum_series_survives_interior_dip():
    # two consecutive tiny terms must not stop the sum if a third large
    # term follows; the stopping rule requires three small terms in a row
    def terms():
        yield 1.0
        yield 1.0
        yield 1e-14
        yield 1e-14
        yield 5.0
        for n in itertools.count():
            yield 0.5**n * 1e-16

    total = sum_series(terms())
    assert total > 6.9


def test_sum_series_truncation_error_carries_state():
    ctrl = SeriesControl(rel_tol=1e-10, max_terms=25)
    with pytest.raises(TruncationError) as excinfo:
        sum_series((1.0 / (n + 1.0) for n in itertools.count()), ctrl)
    err = excinfo.value
    assert err.terms == 25
    expected = sum(1.0 / (n + 1.0) for n in range(25))
    assert math.isclose(err.partial, expected, rel_tol=1e-12)


def test_hurwitz_zeta_against_scipy():
    for s in (1.25, 1.75, 2.5, 3.5, 7.0, 20.0):
        for q in (1.0 / 3.0, 2.0 / 3.0, 1.0, 2.5):
            ours = hurwitz_zeta(s, q)
            ref = float(scipy.special.zeta(s, q))
            assert math.isclose(ours, ref, rel_tol=1e-11), (s, q, ours, ref)
    # every argument omega takes below its z >= 55 cut, for the path-loss
    # exponents in use: both sides are within about 7e-16 of the true value
    for b in (1.1, 1.25, 1.5, 1.75, 2.0, 2.5, 3.0):
        for z in b + np.arange(56):
            for q in (1.0 / 3.0, 2.0 / 3.0, 1.0):
                ref = float(scipy.special.zeta(z, q))
                assert math.isclose(hurwitz_zeta(z, q), ref, rel_tol=2e-15), (z, q)


def test_hurwitz_zeta_domain():
    with pytest.raises(ValueError):
        hurwitz_zeta(1.0, 0.5)
    with pytest.raises(ValueError):
        hurwitz_zeta(0.8, 0.5)
    with pytest.raises(ValueError):
        hurwitz_zeta(2.0, 0.0)
    with pytest.raises(ValueError):
        hurwitz_zeta(2.0, -1.0)


def test_hurwitz_zeta_known_values():
    assert math.isclose(hurwitz_zeta(2.0, 1.0), math.pi**2 / 6.0, rel_tol=1e-14)
    assert math.isclose(hurwitz_zeta(4.0, 1.0), math.pi**4 / 90.0, rel_tol=1e-14)
    assert math.isclose(hurwitz_zeta(2.0, 0.5), math.pi**2 / 2.0, rel_tol=1e-14)
    # the residues 1/3 and 2/3 together are the integers not divisible by 3
    for z in (1.1, 1.75, 3.0, 12.5):
        both = hurwitz_zeta(z, 1.0 / 3.0) + hurwitz_zeta(z, 2.0 / 3.0)
        assert math.isclose(both, (3.0**z - 1.0) * hurwitz_zeta(z, 1.0), rel_tol=1e-14), z


def test_omega_matches_zeta_combination():
    # omega(z) = 3^-z zeta(z) (zeta(z,1/3) - zeta(z,2/3)), checked with
    # an independent zeta implementation
    for z in (1.25, 1.75, 2.0, 3.0, 6.0):
        ref = (
            3.0**-z
            * float(scipy.special.zeta(z, 1.0))
            * (float(scipy.special.zeta(z, 1.0 / 3.0)) - float(scipy.special.zeta(z, 2.0 / 3.0)))
        )
        assert math.isclose(omega(z), ref, rel_tol=1e-11), z


def test_omega_monotone_and_saturates():
    zs = [1.1, 1.5, 2.0, 4.0, 10.0, 30.0, 54.0]
    vals = [omega(z) for z in zs]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert all(v > 1.0 for v in vals)
    assert omega(55.0) == 1.0
    assert omega(80.0) == 1.0
    assert abs(omega(54.9) - 1.0) < 1e-12


def test_omega_domain():
    with pytest.raises(ValueError):
        omega(1.0)
    with pytest.raises(ValueError):
        omega(0.5)


def test_shadowing_mean_factor_against_sampling():
    assert shadowing_mean_factor(ShadowingSpec(0.0)) == 1.0
    spec = ShadowingSpec(sigma_tilde_db=6.0)
    gen = rng.stream(11, 0)
    n = 200_000
    samples = 10.0 ** (spec.sigma_tilde_db * gen.standard_normal(n) / 10.0)
    est = float(samples.mean())
    se = float(samples.std(ddof=1)) / math.sqrt(n)
    assert abs(est - shadowing_mean_factor(spec)) < 3.0 * se


def test_shadowing_spec_domain():
    with pytest.raises(ValueError):
        ShadowingSpec(sigma_tilde_db=-1.0)
