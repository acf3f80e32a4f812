"""End-to-end acceptance checks.

The criteria live in ``tddgeom.acceptance``, which ``tddgeom validate``
runs too.  Each test runs one criterion, prints its verdict line with
the achieved numbers next to the required bounds, then asserts.
"""

import re

from tddgeom import acceptance


def _check(number):
    (criterion,) = [c for c in acceptance.CRITERIA if c.number == number]
    line, passed = criterion.run()
    print(line)
    assert passed, line


def test_criterion_01_lattice_sum_identity():
    _check(1)


def test_criterion_02_edge_interference_identity():
    _check(2)


def test_criterion_03_series_vs_positional_integral():
    _check(3)


def test_criterion_04_inverse_round_trips():
    _check(4)


def test_criterion_05_macro_analytic_vs_mc_coverage():
    _check(5)


def test_criterion_06_uplink_degradation_without_power_control():
    _check(6)


def test_criterion_07_fractional_power_control_trends():
    _check(7)


def test_criterion_08_ppp_analytic_vs_mc_coverage():
    _check(8)


def test_criterion_09_closed_form_anchor():
    _check(9)


def test_criterion_10_small_cell_mixing_gain_by_environment():
    _check(10)


def test_criterion_11_spectral_efficiency_trends():
    _check(11)


def test_criterion_12_determinism():
    _check(12)


def test_every_criterion_has_exactly_one_test():
    numbers = [int(m.group(1)) for name in globals()
               if (m := re.match(r"test_criterion_(\d\d)_", name))]
    assert sorted(numbers) == sorted(c.number for c in acceptance.CRITERIA)
