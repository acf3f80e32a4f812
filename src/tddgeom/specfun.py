"""Special functions for lattice interference series.

Provides the Hurwitz zeta function for real argument s > 1 (the
Riemann zeta function is zeta(s, 1)), the hexagonal-lattice constant

    omega(z) = 3**(-z) * zeta(z) * (zeta(z, 1/3) - zeta(z, 2/3)),

for which 6*omega(b)*delta**(-2b) equals the sum of |s|**(-2b) over all
nonzero sites of a hexagonal lattice with spacing delta, and the mean
amplification factor of log-normal shadowing.

All functions are pure and cache-friendly; they are called with the same
arguments many thousands of times from the series evaluators.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import TruncationError

__all__ = [
    "SeriesControl",
    "ShadowingSpec",
    "hurwitz_zeta",
    "omega",
    "shadowing_mean_factor",
    "sum_series",
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
        if not self.rel_tol > 0:
            raise ValueError("rel_tol must be positive")
        if self.max_terms < 1:
            raise ValueError("max_terms must be at least 1")


@dataclass(frozen=True)
class ShadowingSpec:
    """Log-normal shadowing of the interference-to-signal ratio.

    ``sigma_tilde_db`` is the standard deviation, in dB, of the Gaussian
    exponent of the ratio between interfering and useful link shadowing.
    """

    sigma_tilde_db: float = 0.0

    def __post_init__(self):
        if self.sigma_tilde_db < 0:
            raise ValueError("sigma_tilde_db must be non-negative")


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
        Exponent, must exceed 1 (the series diverges otherwise).
    q : float
        Offset, must be positive; the classical domain here is (0, 1].

    Notes
    -----
    Euler-Maclaurin with N = 16 direct terms and eight corrections:

        zeta(s, q) = sum_{n<N} (n+q)^-s + (N+q)^(1-s)/(s-1) + (N+q)^-s / 2
                     + sum_{j<=8} B_2j/(2j)! * (s)_(2j-1) * (N+q)^(-s-2j+1).

    For 1 < s <= 55 and 0 < q <= 1, the range omega uses, the first
    omitted correction is below 1e-21 of the value, and the tests hold
    the result to scipy.special.zeta within 2e-15.  scipy is not used
    at run time: loading scipy.special would add about 24 MB and 0.25 s
    to every process that needs omega.
    """
    if s <= 1:
        raise ValueError(f"hurwitz_zeta requires s > 1, got s={s}")
    if q <= 0:
        raise ValueError(f"hurwitz_zeta requires q > 0, got q={q}")
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
    nearest neighbours dominate), so values beyond z = 55 are returned as
    exactly 1.0, which is correct to double precision and keeps deep
    series terms from computing 3**z needlessly.
    """
    if z <= 1:
        raise ValueError(f"omega requires z > 1 (lattice sum diverges), got z={z}")
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
