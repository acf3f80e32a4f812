"""Network, propagation, and result containers shared by all models.

Distances are kilometers and transmit powers are dBm throughout the
public surface; powers are converted to linear milliwatts internally.
The propagation loss at distance d km is ``a * d**two_b`` with ``a``
given in dB, so ``a`` acts as a link-budget offset on every transmit
power while thermal noise is left untouched.  Interference-to-signal
ratios are therefore independent of ``a``; only terms involving noise
feel it.
"""

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

SQRT3 = math.sqrt(3.0)
# the largest R/delta: the hexagon circumradius, with room for rounding
MAX_X_EDGE = 1.0 / SQRT3 * (1 + 1e-12)

__all__ = [
    "SQRT3",
    "dbm_to_mw",
    "MacroNetwork",
    "PropagationParams",
    "TddMix",
    "MobilePolar",
    "CoverageCurve",
]


def dbm_to_mw(p_dbm):
    """Convert a power in dBm to linear milliwatts."""
    return 10.0 ** (p_dbm / 10.0)


@dataclass(frozen=True)
class PropagationParams:
    """Path loss, power control, and power levels.

    two_b : path-loss exponent 2b, finite and above 2, so that the
        interference series converge.
    a_db : finite propagation factor in dB at 1 km (antenna gains included).
    k : fractional power-control compensation in [0, 1].  An uplink
        transmitter at distance d from its cell sends p_star * d**(two_b k)
        in the link budget normalised by a, so a receiver at distance D
        gets p_star / a * d**(two_b k) * D**(-two_b).  The compensation
        covers d**(two_b k) only, not a**k; this keeps every
        interference-to-signal ratio independent of a, whereas a factor
        a**k would raise each uplink interferer by k * a_db (52 dB at
        a_db = 130, k = 0.4).
    p_dl_dbm, p_star_dbm : downlink transmit power and uplink target
        power, dBm.
    p_noise_dbm : thermal noise power at the receiver, dBm.  Each power
        is finite, or -inf for a silent transmitter, never +inf.  Each
        linear power, with a_db folded in, and P*/P must be a normal
        double (or 0, from -inf dBm).
    """

    two_b: float = 3.5
    a_db: float = 130.0
    k: float = 0.4
    p_dl_dbm: float = 60.0
    p_star_dbm: float = 20.0
    p_noise_dbm: float = -93.0

    def __post_init__(self):
        _check_real("two_b", self.two_b, 2.0, math.inf)
        _check_real("a_db", self.a_db)
        _check_real("k", self.k, 0.0, 1.0, "[]")
        for name in ("p_dl_dbm", "p_star_dbm", "p_noise_dbm"):
            _check_real(name, getattr(self, name), -math.inf, math.inf, "[)")
        for name, db in (("p_dl_dbm - a_db", self.p_dl_dbm - self.a_db), ("p_noise_dbm", self.p_noise_dbm),
                         ("p_star_dbm - a_db", self.p_star_dbm - self.a_db),
                         ("p_star_dbm - p_dl_dbm", self.p_star_dbm - self.p_dl_dbm)):
            _check_linear(name, db)

    @property
    def b(self):
        return 0.5 * self.two_b

    @property
    def p_dl_mw(self):
        """Downlink power with the propagation factor folded in."""
        return dbm_to_mw(self.p_dl_dbm - self.a_db)

    @property
    def p_star_mw(self):
        """Uplink target power with the propagation factor folded in."""
        return dbm_to_mw(self.p_star_dbm - self.a_db)

    @property
    def p_noise_mw(self):
        return dbm_to_mw(self.p_noise_dbm)

    @property
    def p_star_over_p(self):
        return dbm_to_mw(self.p_star_dbm - self.p_dl_dbm)


@dataclass(frozen=True)
class MacroNetwork:
    """Hexagonal macro deployment.

    delta : inter-site distance in km.
    cell_radius : radius R of the user disk around each site, km;
        at most delta/sqrt(3) (the hexagon circumradius).
    rings : number of interfering lattice rings retained in truncated
        sums and simulations.
    load_eta : average activity factor of interfering cells, in (0, 1].
    """

    delta: float = 1.0
    cell_radius: float = None
    rings: int = 4
    load_eta: float = 1.0

    def __post_init__(self):
        _check_real("delta", self.delta, 0.0, math.inf)
        if self.cell_radius is None:
            object.__setattr__(self, "cell_radius", self.delta / SQRT3)
        _check_real("cell_radius", self.cell_radius, 0.0, self.delta * MAX_X_EDGE, "(]")
        _check_count("rings", self.rings, 1)
        _check_real("load_eta", self.load_eta, 0.0, 1.0, "(]")

    @property
    def x_edge(self):
        """Normalized cell-edge radius R/delta."""
        return self.cell_radius / self.delta


@dataclass(frozen=True)
class TddMix:
    """Per-cell transmission-direction mix.

    Each interfering cell independently transmits downlink with
    probability alpha_d and receives uplink otherwise.
    """

    alpha_d: float = 1.0

    def __post_init__(self):
        _check_real("alpha_d", self.alpha_d, 0.0, 1.0, "[]")

    @property
    def alpha_u(self):
        return 1.0 - self.alpha_d


@dataclass(frozen=True)
class MobilePolar:
    """User position in polar coordinates about its serving site.

    r is in km, finite and non-negative, and not checked against the cell
    radius (the isr experiment runs it to delta); theta in radians, finite.
    """

    r: float
    theta: float = 0.0

    def __post_init__(self):
        _check_real("r", self.r, 0.0, math.inf, "[)")
        _check_real("theta", self.theta)

    def position(self):
        return self.r * complex(math.cos(self.theta), math.sin(self.theta))


@dataclass(frozen=True)
class CoverageCurve:
    """Coverage probability (SINR CCDF) sampled on a threshold grid.

    gamma_db : thresholds in dB.
    value : coverage probabilities in [0, 1].
    ci_halfwidth : 95% half-widths of the Monte Carlo estimates.
    """

    gamma_db: np.ndarray
    value: np.ndarray
    ci_halfwidth: np.ndarray

    def __post_init__(self):
        for name in ("gamma_db", "value", "ci_halfwidth"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if self.gamma_db.ndim != 1 or self.gamma_db.size == 0:
            raise ValueError("gamma_db must be a nonempty 1-d grid")
        if self.value.shape != self.gamma_db.shape or self.ci_halfwidth.shape != self.gamma_db.shape:
            raise ValueError("value and ci_halfwidth must match the grid shape")


def empirical_coverage(grid, sinr_parts, n_draws):
    """The share of n_draws SINR samples, an iterable of arrays, above
    each threshold of a validated grid (dB), with 95% binomial
    half-widths.  Each array is sorted and bisected once, in
    O(draws + thresholds) memory.  A tie or a NaN is not covered and
    +inf is, as ``sinr > gamma`` gives."""
    gamma_lin, _ = thresholds(grid)
    counts = np.zeros(grid.size, dtype=np.int64)
    for sinr in sinr_parts:
        ordered = np.sort(sinr)
        # NaN sorts last, so the samples before the first NaN are the
        # ones that can be covered
        counts += np.searchsorted(ordered, np.nan) - np.searchsorted(ordered, gamma_lin, side="right")
    value = counts / n_draws
    half = 1.96 * np.sqrt(np.maximum(value * (1.0 - value), 0.0) / n_draws)
    return CoverageCurve(grid, value, half)


def _check_count(name, value, minimum, limit=math.inf):
    """Validate an integer argument: a bool or a non-integer raises
    TypeError, a value outside [minimum, limit) ValueError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if not minimum <= value < limit:
        raise ValueError(f"{name} must lie in [{minimum}, {limit}), got {value}")


def _check_real(name, value, low=-math.inf, high=math.inf, ends="()"):
    """Validate a real argument: TypeError if it is not a real number (see
    _is_real) or is NaN, ValueError outside the interval from ``low`` to
    ``high`` with ends as ``ends`` says (a power lies in [-inf, inf))."""
    if not _is_real(value) or math.isnan(value):
        raise TypeError(f"{name} must be a real number, got {value!r}")
    above = value >= low if ends[0] == "[" else value > low
    below = value <= high if ends[1] == "]" else value < high
    if not (above and below):
        raise ValueError(f"{name} must lie in {ends[0]}{low:g}, {high:g}{ends[1]}, got {value}")


def _check_linear(name, db):
    """ValueError naming ``name``, a finite level of ``db`` decibels,
    whose linear value 10^(db/10) is not a normal double: it overflows
    from about 3,083 dB and underflows below about -3,077 dB.  -inf dB,
    a silent power, is 0 and passes."""
    try:
        value = dbm_to_mw(db)
    except OverflowError:
        raise ValueError(f"{name} is {db:g} dB: its linear value overflows a double") from None
    if value < sys.float_info.min and db > -math.inf:
        raise ValueError(f"{name} is {db:g} dB: its linear value underflows a double")


def _check_not_silent(prop, *names):
    """ValueError naming each serving power of ``names`` (by default both)
    that is 0 mW with a folded in, as at -inf dBm: the maps and each ISR
    divide by it."""
    for name in names or ("p_dl_dbm", "p_star_dbm"):
        if dbm_to_mw(getattr(prop, name) - prop.a_db) == 0.0:
            raise ValueError(f"{name} is {getattr(prop, name)} dBm: the serving link is silent")


def check_direction(direction):
    """Validate a link direction, case-insensitively; returns 'dl' or 'ul'."""
    if not isinstance(direction, str) or direction.lower() not in ("dl", "ul"):
        raise ValueError(f"direction must be 'dl' or 'ul', got {direction!r}")
    return direction.lower()


def _is_real(value):
    """Whether value is a real number that a double holds: a bool, a
    string or an integer beyond the double range is not one."""
    if isinstance(value, float):  # the common case, before the slower ABC checks
        return True
    if isinstance(value, numbers.Integral):
        return not isinstance(value, bool) and abs(value) <= sys.float_info.max
    return isinstance(value, numbers.Real)


def check_grid(points, name):
    """The curve grid ``name``, a list or a 1-d array of real numbers that
    holds a point and rises strictly, as a tuple of floats, else
    ConfigError.  NaN compares with nothing: each domain check refuses it."""
    points = points.tolist() if isinstance(points, np.ndarray) else points
    if not isinstance(points, (list, tuple)):
        raise ConfigError(f"{name}: expected a list or a 1-d array")
    if not all(map(_is_real, points)):
        raise ConfigError(f"{name}: entries must be numbers")
    points = tuple(map(float, points))
    if not points:
        raise ConfigError(f"{name}: must hold at least one point")
    if any(b <= a for a, b in zip(points, points[1:])):
        raise ConfigError(f"{name}: must be strictly increasing")
    return points


def thresholds(gamma_db):
    """The linear values of the SINR thresholds ``gamma_db`` (dB), a
    number or a 1-D grid in any order, and whether it is a number.  Each
    threshold must be a real number (a bool or a string is not one),
    finite and within +-1,000 dB (1e-100 to 1e100, far beyond any SINR
    a link can have; the coverage routes overflow near +2,975 dB), else
    ValueError.  Each is converted alone, by Python's float power, so it
    gets the same value and coverage in any grid."""
    grid = np.asarray(gamma_db, dtype=object)
    if grid.ndim > 1:
        raise ValueError(f"gamma_db must be a number or a 1-D grid, got shape {grid.shape}")
    db = grid.reshape(-1).tolist()
    for g in db:
        if not _is_real(g):
            raise ValueError(f"gamma_db must be real numbers, got {g!r}")
        if not abs(g) <= 1000.0:
            raise ValueError(f"gamma_db must be finite and in [-1000, 1000] dB, got {g}")
    return np.array([10.0 ** (float(g) / 10.0) for g in db]), grid.ndim == 0


def check_gamma_grid(gamma_grid_db):
    """The threshold grid (dB) of a Monte Carlo curve or a config as an
    array: a grid by :func:`check_grid` of thresholds that
    :func:`thresholds` takes, else ConfigError naming the first that
    it refuses."""
    grid = check_grid(gamma_grid_db, "gamma_grid_db")
    for g in grid:
        try:
            thresholds(g)
        except ValueError:
            raise ConfigError(
                f"gamma_grid_db: thresholds must be finite and within [-1000, 1000] dB, got {g}"
            ) from None
    return np.array(grid)
