"""Special functions for lattice interference series.

Provides the Hurwitz zeta function for real argument s > 1 (the
Riemann zeta function is zeta(s, 1)), the hexagonal-lattice constant

    omega(z) = 3**(-z) * zeta(z) * (zeta(z, 1/3) - zeta(z, 2/3)),

for which 6*omega(b)*delta**(-2b) equals the sum of |s|**(-2b) over all
nonzero sites of a hexagonal lattice with spacing delta, and the mean
amplification factor of log-normal shadowing.  It also holds the series
tools: :func:`sum_series`, its form for the rows of an array, and the
Taylor tables of a series in x^2.

All functions are pure and cache-friendly; they are called with the same
arguments many thousands of times from the series evaluators.
"""

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import TruncationError
from .params import _check_count, _check_real

__all__ = [
    "SeriesControl",
    "ShadowingSpec",
    "hurwitz_zeta",
    "omega",
    "shadowing_mean_factor",
    "sum_series",
    "sum_series_rows",
]


@dataclass(frozen=True)
class SeriesControl:
    """Truncation policy for infinite series.

    A series is accepted once the absolute term drops below
    ``rel_tol * |partial sum|`` for three consecutive terms; if that has
    not happened within ``max_terms`` terms a :class:`TruncationError` is
    raised carrying the partial sum.
    """

    rel_tol: float = 1e-10
    max_terms: int = 200

    def __post_init__(self):
        _check_real("rel_tol", self.rel_tol, 0.0, math.inf)
        _check_count("max_terms", self.max_terms, 1)


@dataclass(frozen=True)
class ShadowingSpec:
    """Log-normal shadowing of the interference-to-signal ratio.

    ``sigma_tilde_db`` is the standard deviation, in dB, of the Gaussian
    exponent of the ratio between interfering and useful link shadowing.
    """

    sigma_tilde_db: float = 0.0

    def __post_init__(self):
        _check_real("sigma_tilde_db", self.sigma_tilde_db, 0.0, math.inf, "[)")


def sum_series(terms, ctrl=None):
    """Sum an iterable of series terms under a :class:`SeriesControl`.

    Parameters
    ----------
    terms : iterable of float
        Successive series terms; typically a generator.
    ctrl : SeriesControl, optional

    Returns
    -------
    float
        The accepted partial sum.

    Raises
    ------
    TruncationError
        If ``ctrl.max_terms`` terms were consumed without three
        consecutive terms below ``rel_tol`` times the running sum.
    """
    if ctrl is None:
        ctrl = SeriesControl()
    total = 0.0
    consecutive_small = 0
    count = 0
    for term in terms:
        count += 1
        total += term
        if abs(term) <= ctrl.rel_tol * abs(total):
            consecutive_small += 1
            if consecutive_small >= 3:
                return total
        else:
            consecutive_small = 0
        if count >= ctrl.max_terms:
            raise TruncationError(
                f"series did not converge within {ctrl.max_terms} terms "
                f"(last term {term:.3e}, partial sum {total:.6e})",
                partial=total,
                terms=count,
            )
    return total


def sum_series_rows(terms, budgets, rel_tol, width):
    """The rule of :func:`sum_series` on each row of ``terms(width)``, a
    2-D array of positive terms, row i within ``budgets[i]`` >= 3 terms.
    The width starts at ``width``, at most 4,096 columns, and doubles up
    to the largest budget until every row stops or reaches its budget;
    terms past a stop may overflow.

    Returns per row the partial sum and the term where the row stops or
    gives up, and whether it converged.
    """
    width = min(width, budgets.max(), 4096)
    with np.errstate(over="ignore"):
        while True:
            t = terms(width)
            sums = np.add.accumulate(t, axis=1)
            small = t <= rel_tol * sums
            stop = small[:, 2:] & small[:, 1:-1] & small[:, :-2] & (np.arange(2, width) < budgets[:, None])
            converged = stop.any(axis=1)
            if np.all(converged | (budgets <= width)):
                at = (np.arange(budgets.size), np.where(converged, stop.argmax(axis=1) + 2, budgets - 1))
                return list(zip(sums[at].tolist(), t[at].tolist(), converged.tolist()))
            width = min(2 * width, budgets.max())


def _taylor_table(coefficient, x_max, ctrl, scale):
    """The coefficients scale * c_h + i d_h, with d_h those of the
    derivative in x^2, of the series sum_h c_h x^{2h} cut where
    :func:`sum_series` accepts it at x = x_max.  The terms are positive,
    so the cut holds at every smaller x too, and two tables add entry
    by entry.  One Horner pass in a real variable gives the series and
    its derivative as the real and imaginary parts: multiplying by a
    real number keeps them apart exactly.  An entry past the double range
    raises TruncationError."""
    coeffs = []

    def terms():
        for h in itertools.count():
            coeffs.append(coefficient(h))
            yield coeffs[-1] * x_max ** (2 * h)

    sum_series(terms(), ctrl)
    with np.errstate(over="ignore"):
        c = scale * np.array(coeffs)
        dc = np.append(np.polynomial.polynomial.polyder(c), 0.0)
        if np.isfinite(c + dc).all():  # no entry is negative: finite where both are
            return c + 1j * dc
    raise TruncationError("Taylor coefficient exceeds the double-precision range")


def _taylor_values(x, table, b):
    """x^{2b} P(x^2) and its slope x^{2b-1} (2b P + 2 x^2 P') at the
    radii x, for the table P + i P' of :func:`_taylor_table`, by Horner's
    rule."""
    u = x * x
    u_complex = u.astype(complex)
    z = np.full(x.size, table[-1])
    for c in table[-2::-1].tolist():
        z *= u_complex
        z += c
    p, dp = z.real, z.imag
    xb = x ** (2.0 * b)
    return xb * p, xb / x * (2.0 * b * p + 2.0 * u * dp)


# direct terms of the Euler-Maclaurin sum, and the Bernoulli numbers
# B_2, B_4, ..., B_16 of its tail
_N_LEAD = 16
_BERNOULLI = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
    -3617.0 / 510.0,
)


def hurwitz_zeta(s, q):
    """Hurwitz zeta function zeta(s, q) = sum_{n>=0} (n+q)**-s.

    Parameters
    ----------
    s : float
        Exponent, finite and above 1 (the series diverges otherwise).
    q : float
        Offset, finite and positive; the classical domain here is (0, 1].

    Notes
    -----
    Euler-Maclaurin with N = 16 direct terms and eight corrections:

        zeta(s, q) = sum_{n<N} (n+q)^-s + (N+q)^(1-s)/(s-1) + (N+q)^-s / 2
                     + sum_{j<=8} B_2j/(2j)! * (s)_(2j-1) * (N+q)^(-s-2j+1).

    For 1 < s <= 55 and 0 < q <= 1, the range omega uses, the first
    omitted correction is below 1e-21 of the value, and the tests hold
    the result to scipy.special.zeta within 2e-15.  scipy is a test
    dependency only: loading scipy.special would add about 24 MB and
    0.25 s to every process that needs omega.
    """
    _check_real("s", s, 1.0, math.inf)
    _check_real("q", q, 0.0, math.inf)
    base = _N_LEAD + q
    lead = 0.0
    for n in range(_N_LEAD - 1, -1, -1):  # smallest terms first
        lead += (n + q) ** (-s)
    value = lead + base ** (1.0 - s) / (s - 1.0) + 0.5 * base ** (-s)
    poch = s  # (s)_(2j-1)
    power = base ** (-s - 1.0)
    fact = 2.0  # (2j)!
    for j, b2j in enumerate(_BERNOULLI, start=1):
        value += b2j / fact * poch * power
        poch *= (s + 2 * j - 1) * (s + 2 * j)
        power /= base * base
        fact *= (2 * j + 1) * (2 * j + 2)
    return value


@lru_cache(maxsize=None)
def omega(z):
    """Hexagonal-lattice zeta constant.

    omega(z) = 3**(-z) * zeta(z) * (zeta(z, 1/3) - zeta(z, 2/3)).

    The sum of |s|**(-2z) over the nonzero sites of a unit-spacing
    hexagonal lattice equals 6*omega(z); the factor 6 is the size of the
    first ring.  omega decreases monotonically to 1 as z grows (the six
    nearest neighbours dominate), so values of a finite z beyond 55 are
    returned as exactly 1.0, which is correct to double precision and
    keeps deep series terms from computing 3**z needlessly.
    """
    _check_real("z", z, 1.0, math.inf)  # the lattice sum diverges at z <= 1
    if z >= 55:
        return 1.0
    return 3.0 ** (-z) * hurwitz_zeta(z, 1.0) * (hurwitz_zeta(z, 1.0 / 3.0) - hurwitz_zeta(z, 2.0 / 3.0))


def shadowing_mean_factor(spec):
    """Mean amplification of the interference ratio under shadowing.

    For a log-normal ratio 10**(Y/10) with Y ~ N(0, sigma_tilde_db**2),
    E[10**(Y/10)] = exp((sigma_tilde_db * ln(10)/10)**2 / 2).
    """
    a = spec.sigma_tilde_db * math.log(10.0) / 10.0
    return math.exp(0.5 * a * a)
