"""End-to-end acceptance checks.

The criteria live in ``tddgeom.acceptance``, which ``tddgeom validate``
runs too.  Each test runs one criterion, prints its verdict line with
the achieved numbers next to the required bounds, checks that the
criterion still yields every bound of the table below, then asserts
that it passed.  The tests after them cover how ``Criterion.run``
checks, times and prints measurements.
"""

import math
import re
import time

import pytest

from tddgeom import acceptance

# every bound of C01-C12, relation included, in the order the criterion
# yields them, its time budget last: a change that drops a bound,
# loosens one or makes a strict one non-strict fails _check
_BOUNDS = {
    1: [("<=", 1e-6), ("<=", 1e-3), ("<", 5.0)],
    2: [("<=", 1e-10), ("<", 1.0)],
    3: [("<=", 3.0), ("<", 30.0)],
    4: [("<=", 1e-12), ("<=", 1e-10), ("<=", 0.05), ("<=", 0.02)],
    5: [("<=", 0.03)] * 3 + [("<", 120.0)],
    6: [("in", 70.0, 90.0)],
    7: [("<=", 0.01), True],
    8: [("<=", 0.05)] * 2 + [("<", 300.0)],
    9: [("<=", 0.01)],
    10: [("in", 10.0, 20.0), ("<", 3.0)],
    11: [(">", 0.0)] * 3 + [True] + [("<=", 3.0)] * 2,
    12: [True] * 9,
}


def _check(number):
    (criterion,) = [c for c in acceptance.CRITERIA if c.number == number]
    line, passed, measurements = criterion.run()
    print(line)
    assert [bound for _, _, bound in measurements if bound is not None] == _BOUNDS[number]
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


def _run(*measurements, budget=None):
    return acceptance.Criterion(0, "fake", True, lambda: measurements, budget).run()


@pytest.mark.parametrize("value, bound, holds", [
    (1.0, ("<=", 1.0), True),
    (math.nextafter(1.0, 2.0), ("<=", 1.0), False),
    (3.0, ("<", 3.0), False),
    (math.nextafter(3.0, 0.0), ("<", 3.0), True),
    (0.0, (">", 0.0), False),
    (5e-324, (">", 0.0), True),
    (70.0, ("in", 70.0, 90.0), True),
    (90.0, ("in", 70.0, 90.0), True),
    (math.nextafter(70.0, 0.0), ("in", 70.0, 90.0), False),
    (math.nextafter(90.0, 100.0), ("in", 70.0, 90.0), False),
    (math.nan, ("<=", 1.0), False),
    (math.nan, ("in", 70.0, 90.0), False),
    (True, True, True),
    (False, True, False),
    (1.0, True, False),
])
def test_a_criterion_passes_only_where_every_bound_holds(value, bound, holds):
    line, passed, measurements = _run(("x", 1.0, ("<=", 2.0)), ("y", value, bound))
    assert passed is holds
    assert measurements == [("x", 1.0, ("<=", 2.0)), ("y", value, bound)]
    assert line.endswith(" -> PASS" if holds else " <- FAIL -> FAIL")
    assert "<- FAIL" not in line.split(", y ")[0]


def test_a_failing_measurement_is_marked():
    # the value is written to 6 significant digits, so a drop just past
    # the bound does not print as on it
    assert _run(("drop", 90.002, ("in", 70.0, 90.0)), ("lim", 90.7, None))[:2] == (
        "criterion 00 fake: drop 90.002 (req in [70, 90]) <- FAIL, lim 90.7 -> FAIL", False)
    assert _run(("gap", 0.397952, ("<", 3.0)), ("ok", True, True), ("gain", 1.105934, (">", 0.0)))[:2] == (
        "criterion 00 fake: gap 0.397952 (req <3), ok True (req True), gain 1.10593 (req >0) -> PASS", True)


def test_a_context_value_never_fails():
    line, passed, _ = _run(("limit", math.nan, None), ("series", -math.inf, None), ("mc", 1e300, None))
    assert passed and line == "criterion 00 fake: limit nan, series -inf, mc 1e+300 -> PASS"


def test_a_time_measurement_appears_only_where_a_budget_is_set():
    assert _run(("x", 1.0, None))[2] == [("x", 1.0, None)]
    line, passed, measurements = _run(("x", 1.0, None), budget=30.0)
    assert passed and len(measurements) == 2 and measurements[0] == ("x", 1.0, None)
    label, seconds, bound = measurements[1]
    assert label == "seconds" and 0.0 <= seconds < 30.0 and bound == ("<", 30.0)
    assert line.endswith(f"seconds {seconds:.6g} (req <30) -> PASS")


def test_the_budget_times_the_whole_check():
    def slow():
        time.sleep(0.02)
        yield "x", 1.0, None
        time.sleep(0.02)

    line, passed, measurements = acceptance.Criterion(0, "slow", True, slow, budget=0.03).run()
    assert not passed and measurements[1][1] >= 0.04
    assert line.endswith("(req <0.03) <- FAIL -> FAIL")
