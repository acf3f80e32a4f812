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
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

SQRT3 = math.sqrt(3.0)

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

    two_b : path-loss exponent 2b, must exceed 2 for the interference
        series to converge.
    a_db : propagation factor in dB at 1 km (includes antenna gains).
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
    p_noise_dbm : thermal noise power at the receiver, dBm.
    """

    two_b: float = 3.5
    a_db: float = 130.0
    k: float = 0.4
    p_dl_dbm: float = 60.0
    p_star_dbm: float = 20.0
    p_noise_dbm: float = -93.0

    def __post_init__(self):
        for name in ("two_b", "k", "a_db", "p_dl_dbm", "p_star_dbm", "p_noise_dbm"):
            _check_real(name, getattr(self, name))
        if not self.two_b > 2:
            raise ValueError(f"two_b must exceed 2, got {self.two_b}")
        if not 0.0 <= self.k <= 1.0:
            raise ValueError(f"k must lie in [0, 1], got {self.k}")

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
        _check_positive("delta", self.delta)
        _check_real("load_eta", self.load_eta)
        if self.cell_radius is None:
            object.__setattr__(self, "cell_radius", self.delta / SQRT3)
        _check_positive("cell_radius", self.cell_radius)
        if not self.cell_radius <= self.delta / SQRT3 * (1 + 1e-12):
            raise ValueError(
                f"cell_radius must lie in (0, delta/sqrt(3)] = (0, {self.delta / SQRT3:.6f}], "
                f"got {self.cell_radius}"
            )
        _check_count("rings", self.rings, 1)
        if not 0 < self.load_eta <= 1:
            raise ValueError(f"load_eta must lie in (0, 1], got {self.load_eta}")

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
        _check_real("alpha_d", self.alpha_d)
        if not 0.0 <= self.alpha_d <= 1.0:
            raise ValueError(f"alpha_d must lie in [0, 1], got {self.alpha_d}")

    @property
    def alpha_u(self):
        return 1.0 - self.alpha_d


@dataclass(frozen=True)
class MobilePolar:
    """User position in polar coordinates about its serving site.

    r is in km and must not exceed the cell radius; theta in radians.
    """

    r: float
    theta: float = 0.0

    def __post_init__(self):
        _check_finite("r", self.r)
        _check_finite("theta", self.theta)
        if self.r < 0:
            raise ValueError(f"r must be non-negative, got {self.r}")

    def position(self):
        return self.r * complex(math.cos(self.theta), math.sin(self.theta))


@dataclass(frozen=True)
class CoverageCurve:
    """Coverage probability (SINR CCDF) sampled on a threshold grid.

    gamma_db : thresholds in dB.
    value : coverage probabilities in [0, 1].
    ci_halfwidth : 95% half-widths for Monte Carlo estimates; zeros for
        analytic curves.
    """

    gamma_db: np.ndarray
    value: np.ndarray
    ci_halfwidth: np.ndarray = field(default=None)

    def __post_init__(self):
        gamma = np.asarray(self.gamma_db, dtype=float)
        value = np.asarray(self.value, dtype=float)
        object.__setattr__(self, "gamma_db", gamma)
        object.__setattr__(self, "value", value)
        if self.ci_halfwidth is None:
            object.__setattr__(self, "ci_halfwidth", np.zeros_like(value))
        else:
            object.__setattr__(self, "ci_halfwidth", np.asarray(self.ci_halfwidth, dtype=float))
        if gamma.ndim != 1 or gamma.size == 0:
            raise ValueError("gamma_db must be a nonempty 1-d grid")
        if value.shape != gamma.shape or self.ci_halfwidth.shape != gamma.shape:
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


def _check_count(name, value, minimum):
    """Validate an integer field of a dataclass: a bool or a
    non-integer raises TypeError, a value below ``minimum``
    ValueError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value}")


def _check_real(name, value):
    """Validate a real field of a dataclass: a bool, a non-real value or
    NaN raises TypeError; -inf passes (-inf dBm is a silent transmitter)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or math.isnan(value):
        raise TypeError(f"{name} must be a real number, got {value!r}")


def _check_finite(name, value):
    """Validate a coordinate or a spread: a real number (see _check_real)
    that is also finite, else ValueError."""
    _check_real(name, value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


def _check_positive(name, value):
    """Validate a length or a density: a real number (see _check_real)
    that is also finite and positive, else ValueError."""
    _check_real(name, value)
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


def check_direction(direction):
    """Validate a link direction, case-insensitively; returns 'dl' or 'ul'."""
    if not isinstance(direction, str) or direction.lower() not in ("dl", "ul"):
        raise ValueError(f"direction must be 'dl' or 'ul', got {direction!r}")
    return direction.lower()


def thresholds(gamma_db):
    """The linear values of the SINR thresholds ``gamma_db`` (dB), a
    number or a 1-D grid in any order, and whether it is a number.  Each
    threshold must be finite and within +-1,000 dB (1e-100 to 1e100, far
    beyond any SINR a link can have; the coverage routes overflow near
    +2,975 dB), else ValueError.  Each is converted alone, by Python's
    float power, so it gets the same value and coverage in any grid."""
    grid = np.asarray(gamma_db, dtype=float)
    if grid.ndim > 1:
        raise ValueError(f"gamma_db must be a number or a 1-D grid, got shape {grid.shape}")
    db = grid.reshape(-1).tolist()
    for g in db:
        if not abs(g) <= 1000.0:
            raise ValueError(f"gamma_db must be finite and in [-1000, 1000] dB, got {g}")
    return np.array([10.0 ** (g / 10.0) for g in db]), grid.ndim == 0


def check_gamma_grid(gamma_grid_db):
    """Validate a threshold grid (dB) for a Monte Carlo curve or a config:
    nonempty, strictly increasing, and as :func:`thresholds` takes it."""
    try:
        gamma, scalar = thresholds(gamma_grid_db)
    except ValueError:
        gamma, scalar = None, True
    if scalar or gamma.size == 0:
        raise ConfigError("gamma_grid_db must be a nonempty 1-d array of finite thresholds in [-1000, 1000] dB")
    grid = np.asarray(gamma_grid_db, dtype=float)
    if not np.all(np.diff(grid) > 0):
        raise ConfigError("gamma_grid_db must be strictly increasing")
    return grid
