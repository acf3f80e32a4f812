"""Experiment configuration: the schema of a config tree and its
validation.

Configs are JSON trees with one experiment per file.  Omitted fields
fall back to the reference deployment parameters (macro power 60 dBm,
small-cell 26 dBm, uplink target 20 dBm, noise -93 dBm, spacing 1 km,
4 rings, 10 small cells per square km, outdoor attenuation 130 dB,
path-loss exponent 3.5).  Unknown keys anywhere in the tree are
rejected so typos cannot silently revert a parameter to its default.
Running a resolved config is :mod:`tddgeom.runner`'s part.
"""

import dataclasses
import json
import math
import os

import numpy as np

from . import rng
from .errors import ConfigError
from .params import (
    MacroNetwork,
    PropagationParams,
    TddMix,
    _check_not_silent,
    _is_real,
    check_gamma_grid,
    check_grid,
)
from .ppp_model import QuadratureControl, SmallCellScenario
from .specfun import SeriesControl

_GEOMETRIES = ("macro", "ppp")
_DIRECTIONS = ("dl", "ul")
_MODES = ("analytic", "mc", "both")
_EXPERIMENTS = ("coverage", "isr", "ase")


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    """One fully resolved experiment: what to compute and with which
    model parameters.  Build instances through load_config or
    config_from_dict so every field is validated."""

    geometry: str = "macro"
    experiment: str = "coverage"
    direction: str = "dl"
    mode: str = "analytic"
    prop: PropagationParams = PropagationParams()
    mix: TddMix = TddMix()
    macro: MacroNetwork = MacroNetwork()
    lam: float = SmallCellScenario.lam
    window_radius: float | None = SmallCellScenario.window_radius
    p_small_dbm: float = SmallCellScenario.p_small_dbm
    p_small_star_dbm: float = SmallCellScenario.p_small_star_dbm
    series: SeriesControl = SeriesControl()
    quadrature: QuadratureControl = QuadratureControl()
    gamma_grid_db: tuple = tuple(np.arange(-30.0, 30.5, 1.0).tolist())
    x_grid: tuple = tuple(np.round(np.arange(0.02, 0.401, 0.02), 10).tolist())
    lambda_grid: tuple = (5.0, 10.0, 20.0, 50.0)
    n_draws: int = 20000
    seed: int = 1
    out: str | None = None
    label: str | None = None
    plot_script: bool = False

    def scenario(self):
        """SmallCellScenario assembled from the point-process fields."""
        return SmallCellScenario(
            lam=self.lam,
            window_radius=self.window_radius,
            p_small_dbm=self.p_small_dbm,
            p_small_star_dbm=self.p_small_star_dbm,
            prop=self.prop,
            mix=self.mix,
        )


# The config tree nests some fields in groups: group name -> (the
# ExperimentConfig field that holds the group's dataclass, that
# dataclass).  The "ppp" group holds the SmallCellScenario fields that
# ExperimentConfig keeps flat, so it has no field of its own.
_GROUPS = {
    "propagation": ("prop", PropagationParams),
    "mix": ("mix", TddMix),
    "macro": ("macro", MacroNetwork),
    "ppp": (None, SmallCellScenario),
    "series": ("series", SeriesControl),
    "quadrature": ("quadrature", QuadratureControl),
}
_GROUP_OF = {target: name for name, (target, _) in _GROUPS.items() if target}
_GROUP_FIELDS = {
    name: tuple(f.name for f in dataclasses.fields(cls) if f.name not in _GROUP_OF)
    for name, (_, cls) in _GROUPS.items()
}
_TOP_FIELDS = tuple(
    f.name for f in dataclasses.fields(ExperimentConfig)
    if f.name not in _GROUP_OF and f.name not in _GROUP_FIELDS["ppp"]
) + tuple(_GROUPS)


# the most points a {start, stop, step} range may hold: far more than a
# curve needs, and few enough that its arrays take no noticeable memory
_MAX_RANGE_POINTS = 10_000


def _parse_grid(value, name):
    """A grid is a list or a {start, stop, step} range, whose points are
    rounded to 12 decimals; either form must pass params.check_grid."""
    if isinstance(value, dict):
        unknown = set(value) - {"start", "stop", "step"}
        if unknown:
            raise ConfigError(f"{name}: unknown range keys {sorted(unknown)}")
        keys = [value.get(key) for key in ("start", "stop", "step")]
        if not all(map(_is_real, keys)):
            raise ConfigError(f"{name}: range needs numeric start, stop, step")
        start, stop, step = map(float, keys)
        # JSON takes NaN and Infinity, and the count may still overflow
        if not (0 < step < math.inf and math.isfinite((stop - start) / step)):
            raise ConfigError(f"{name}: range needs a positive step and a finite start, stop, step and count")
        n = math.floor((stop - start) / step + 1e-9) + 1
        if n > _MAX_RANGE_POINTS:
            raise ConfigError(f"{name}: range has {n} points, more than {_MAX_RANGE_POINTS}")
        # a stop below start gives no point, and np.arange refuses a
        # count far below zero
        value = np.round(start + step * np.arange(max(n, 0)), 12)
    elif not isinstance(value, (list, tuple)):
        raise ConfigError(f"{name}: expected a list or a start/stop/step object")
    return check_grid(value, name)


# what a label may not hold, as it names files in the output directory
_NOT_IN_LABEL = "\0" + os.sep + (os.altsep or "")


def _check_label(label):
    """ConfigError unless ``label`` names a file: a path separator would
    put the outputs in another directory, and no path holds a NUL."""
    if any(c in label for c in _NOT_IN_LABEL):
        raise ConfigError(f"label: must be a file name, with no path separator or NUL, got {label!r}")


def _build_group(name, cls, data, errors, parsed):
    """The fields of group ``name`` given in ``data``, and the group's
    dataclass built from them and from the ``parsed`` groups it holds,
    which validates them (None if it rejects them)."""
    fields = _GROUP_FIELDS[name]
    unknown = set(data) - set(fields)
    if unknown:
        errors.append(f"{name}: unknown keys {sorted(unknown)}")
    kwargs = {key: data[key] for key in fields if key in data}
    try:
        return kwargs, cls(**kwargs, **parsed)
    except (TypeError, ValueError) as exc:
        errors.append(f"{name}: {exc}")
        return kwargs, None


def config_from_dict(data):
    """Validate a config tree and return the resolved ExperimentConfig.

    Every problem found is reported in one ConfigError, one line per
    item, so a bad file surfaces all its mistakes at once.
    """
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    errors = []
    unknown = set(data) - set(_TOP_FIELDS)
    if unknown:
        errors.append(f"unknown top-level keys: {sorted(unknown)}")

    kwargs = {}
    for key, allowed in (
        ("geometry", _GEOMETRIES),
        ("experiment", _EXPERIMENTS),
        ("direction", _DIRECTIONS),
        ("mode", _MODES),
    ):
        if key in data:
            value = str(data[key]).lower()
            if value not in allowed:
                errors.append(f"{key}: must be one of {list(allowed)}, got {data[key]!r}")
            else:
                kwargs[key] = value

    for name, (target, cls) in _GROUPS.items():
        if name not in data:
            continue
        if not isinstance(data[name], dict):
            errors.append(f"{name}: expected an object")
            continue
        # the ppp group holds the propagation and mix parsed before it
        parsed = {key: kwargs[key] for key in ("prop", "mix") if kwargs.get(key)} if target is None else {}
        fields, group = _build_group(name, cls, data[name], errors, parsed)
        if target is None:
            kwargs.update(fields)
        else:
            kwargs[target] = group

    for key in ("gamma_grid_db", "x_grid", "lambda_grid"):
        if key in data:
            try:
                kwargs[key] = _parse_grid(data[key], key)
            except ConfigError as exc:
                errors.append(str(exc))

    for key, low, high, bounds in (("n_draws", 1, math.inf, "at least 1"),
                                   ("seed", 0, rng._SEED_LIMIT, "in [0, 2**64)")):
        if key in data:
            if isinstance(data[key], bool) or not isinstance(data[key], int):
                errors.append(f"{key}: must be an integer")
            elif not low <= data[key] < high:
                errors.append(f"{key}: must be {bounds}")
            else:
                kwargs[key] = data[key]

    for key in ("out", "label"):
        if key in data:
            if data[key] is not None and not isinstance(data[key], str):
                errors.append(f"{key}: must be a string")
            else:
                kwargs[key] = data[key]
    if kwargs.get("label"):
        try:
            _check_label(kwargs["label"])
        except ConfigError as exc:
            errors.append(str(exc))
    if "plot_script" in data:
        if not isinstance(data["plot_script"], bool):
            errors.append("plot_script: must be true or false")
        else:
            kwargs["plot_script"] = data["plot_script"]

    if errors:
        raise ConfigError("invalid config:\n  " + "\n  ".join(errors))

    cfg = ExperimentConfig(**kwargs)
    _check_semantics(cfg, errors)
    if errors:
        raise ConfigError("invalid config:\n  " + "\n  ".join(errors))
    return cfg


def _check_semantics(cfg, errors):
    if cfg.experiment == "coverage":
        try:
            check_gamma_grid(cfg.gamma_grid_db)
        except ConfigError as exc:
            errors.append(str(exc))
    if cfg.experiment == "isr":
        if cfg.geometry != "macro":
            errors.append("isr experiments require geometry=macro")
        if cfg.mode != "analytic":
            errors.append("isr experiments are analytic only")
        if not all(0 < x < cfg.macro.delta for x in cfg.x_grid):
            errors.append("x_grid: distances must be positive and below macro.delta")
        try:
            _check_not_silent(cfg.prop)  # each ISR is a ratio to a serving power
        except ValueError as exc:
            errors.append(f"propagation: {exc}")
    if cfg.experiment == "ase":
        if cfg.geometry != "ppp":
            errors.append("ase experiments require geometry=ppp")
        if cfg.mode != "analytic" and cfg.n_draws < 2:
            errors.append("n_draws: an ASE Monte Carlo needs at least 2 draws for its half-width")
    if cfg.geometry == "ppp":
        # check each scenario the run builds, also where no ppp group
        # was given and at each density of an ASE grid
        group, lams = ("lambda_grid", cfg.lambda_grid) if cfg.experiment == "ase" else ("ppp", (cfg.lam,))
        for lam in lams:
            try:
                dataclasses.replace(cfg, lam=lam).scenario()
            except (TypeError, ValueError) as exc:
                errors.append(f"{group}: {exc}")
                break


def load_config(path):
    """Read a JSON config file; an empty file means all defaults."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not text.strip():
        return ExperimentConfig()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_dict(data)


def dump_config(cfg):
    """Normalized dict form of a config: every field materialized, in
    schema order, so dump(load(x)) is the canonical form of x."""
    out = {}
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if f.name in _GROUP_OF:
            out[_GROUP_OF[f.name]] = dataclasses.asdict(value)
        elif f.name in _GROUP_FIELDS["ppp"]:
            out.setdefault("ppp", {})[f.name] = value
        else:
            out[f.name] = list(value) if isinstance(value, tuple) else value
    return out


# The reduced quadrature of the PPP recipes (fig7-fig10) and of
# acceptance criterion 11.
FAST_QUAD = {"n_rho": 32, "n_x": 24, "n_serving": 24,
             "inner_abs_tol": 1e-5, "outer_abs_tol": 1e-4, "ase_rel_tol": 1e-3}
