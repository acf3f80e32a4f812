"""Experiment configuration, orchestration, and output artifacts.

Configs are JSON trees with one experiment per file.  Omitted fields
fall back to the reference deployment parameters (macro power 60 dBm,
small-cell 26 dBm, uplink target 20 dBm, noise -93 dBm, spacing 1 km,
4 rings, 10 small cells per square km, outdoor attenuation 130 dB,
path-loss exponent 3.5).  Unknown keys anywhere in the tree are
rejected so typos cannot silently revert a parameter to its default.
"""

import dataclasses
import functools
import json
import math
import os
import subprocess
import time

import numpy as np

from . import hexgrid, macro_analytic, ppp_ase, ppp_model, rng
from .errors import ConfigError
from .params import (
    MacroNetwork,
    MobilePolar,
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
    lam: float = 10.0
    window_radius: float | None = None
    p_small_dbm: float = 26.0
    p_small_star_dbm: float = 20.0
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

    # the streams take a seed as one 64-bit key word: 2**64 would repeat the streams of 0
    for key, low, high, bounds in (("n_draws", 1, math.inf, "at least 1"), ("seed", 0, 2**64, "in [0, 2**64)")):
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


def _format_value(x):
    if isinstance(x, float):
        return repr(float(x))
    return str(x)


def _write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_format_value(v) for v in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


@functools.cache
def _version_string():
    from . import __version__

    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    try:
        described = subprocess.run(
            ["git", "-C", root, "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=5,
        )
        if described.returncode == 0:
            return f"{__version__}+g{described.stdout.strip()}"
    except (OSError, subprocess.SubprocessError):
        pass
    return __version__


def _curve_table(x_name, x, value_name, columns):
    """The CSV header and rows of a curve over x: per entry of the
    ordered ``columns``, {"analytic": (values, halfwidths), "mc":
    (values, halfwidths)}, a value and a 95% half-width column, each
    named with the entry as a suffix when there are two entries."""
    header = [x_name]
    for name in columns:
        suffix = f"_{name}" if len(columns) > 1 else ""
        header += [value_name + suffix, "ci_halfwidth" + suffix]
    return header, list(zip(x, *(part for pair in columns.values() for part in pair)))


def _coverage_rows(cfg):
    grid = cfg.gamma_grid_db
    columns = {}
    if cfg.mode != "mc":
        if cfg.geometry == "macro":
            values = macro_analytic.coverage_macro(grid, cfg.direction, cfg.macro, cfg.prop, cfg.mix,
                                                   ctrl=cfg.series)
        else:
            fn = ppp_model.coverage_ppp_dl if cfg.direction == "dl" else ppp_model.coverage_ppp_ul
            values = fn(grid, cfg.scenario(), cfg.quadrature)
        columns["analytic"] = (values, np.zeros_like(values))
    if cfg.mode != "analytic":
        if cfg.geometry == "macro":
            curve = hexgrid.mc_coverage_macro(
                cfg.macro, cfg.prop, cfg.mix, cfg.direction, grid, cfg.n_draws, cfg.seed)
        else:
            curve = ppp_model.mc_coverage_ppp(
                cfg.scenario(), cfg.direction, grid, cfg.n_draws, cfg.seed)
        columns["mc"] = (curve.value, curve.ci_halfwidth)
    return _curve_table("gamma_db", grid, "value", columns)


def _isr_rows(cfg):
    rows = []
    for x in cfg.x_grid:
        parts = macro_analytic.isr_total(MobilePolar(r=x), cfg.macro, cfg.prop, cfg.mix, ctrl=cfg.series)
        if cfg.direction == "dl":
            components = (("dl_to_dl", parts.dl_to_dl), ("ul_to_dl", parts.ul_to_dl), ("total", parts.total_dl))
        else:
            components = (("ul_to_ul", parts.ul_to_ul), ("dl_to_ul", parts.dl_to_ul), ("total", parts.total_ul))
        rows += [(x, name, value) for name, value in components]
    return ["x", "isr_component", "value"], rows


def _ase_rows(cfg):
    lams = cfg.lambda_grid
    scenarios = [dataclasses.replace(cfg, lam=lam).scenario() for lam in lams]
    columns = {}
    if cfg.mode != "mc":
        values = np.array([ppp_ase.ase(scenario, cfg.direction, cfg.quadrature) for scenario in scenarios])
        columns["analytic"] = (values, np.zeros_like(values))
    if cfg.mode != "analytic":
        means, halves = np.empty(len(lams)), np.empty(len(lams))
        for i, scenario in enumerate(scenarios):
            eff = np.log2(1.0 + ppp_model.mc_sinr_ppp(scenario, cfg.direction, cfg.n_draws, cfg.seed))
            means[i], halves[i] = eff.mean(), 1.96 * eff.std(ddof=1) / math.sqrt(eff.size)
        columns["mc"] = (means, halves)
    return _curve_table("lambda", lams, "ase", columns)


_PLOT_TEMPLATE = """set datafile separator ","
set key autotitle columnhead
set grid
set xlabel "{xlabel}"
set ylabel "{ylabel}"
plot {plots}
"""


def _plot_script_text(csv_name, header):
    value_cols = [i + 1 for i, name in enumerate(header[1:], start=1) if "ci_" not in name and name != "isr_component"]
    plots = ", ".join(f'"{csv_name}" using 1:{c} with lines' for c in value_cols)
    ylabel = {"gamma_db": "coverage probability", "x": "interference to signal ratio", "lambda": "ASE (bit/s/Hz)"}
    return _PLOT_TEMPLATE.format(xlabel=header[0], ylabel=ylabel.get(header[0], "value"), plots=plots)


def run(cfg, out_dir=None, label=None):
    """Execute one experiment and write its CSV plus metadata sidecar.

    Returns the CSV path.  The output directory resolves in order:
    explicit argument, config field, TDDGEOM_OUT, current directory.
    The sidecar records the wall time of the computation (a monotonic
    clock), and for a Monte Carlo coverage or ASE run the number of
    draws, the draws per second and the worker threads that drew them
    (both samplers run on :func:`rng.workers` threads).
    """
    out = out_dir or cfg.out or os.environ.get("TDDGEOM_OUT") or "."
    os.makedirs(out, exist_ok=True)
    name = label or cfg.label or f"{cfg.geometry}-{cfg.experiment}-{cfg.direction}"

    start = time.perf_counter()
    if cfg.experiment == "coverage":
        header, rows = _coverage_rows(cfg)
    elif cfg.experiment == "isr":
        header, rows = _isr_rows(cfg)
    else:
        header, rows = _ase_rows(cfg)
    wall = time.perf_counter() - start

    csv_path = os.path.join(out, f"{name}.csv")
    _write_csv(csv_path, header, rows)
    meta = {
        "config": dump_config(cfg),
        "seed": cfg.seed,
        "version": _version_string(),
        "wall_time_s": round(wall, 3),
    }
    if cfg.mode == "mc" and cfg.experiment != "isr":
        # the Monte Carlo runs one sampler per density of an ASE sweep
        draws = cfg.n_draws * (len(cfg.lambda_grid) if cfg.experiment == "ase" else 1)
        meta["mc_draws"] = draws
        meta["mc_draws_per_s"] = round(draws / wall, 1)
        meta["mc_workers"] = rng.workers()
    with open(os.path.join(out, f"{name}.meta.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=False)
        fh.write("\n")
    if cfg.plot_script:
        with open(os.path.join(out, f"{name}.gp"), "w", encoding="utf-8") as fh:
            fh.write(_plot_script_text(os.path.basename(csv_path), header))
    return csv_path


# The reduced quadrature of the PPP recipes (fig7-fig10) and of
# acceptance criterion 11.
FAST_QUAD = {"n_rho": 32, "n_x": 24, "n_serving": 24,
             "inner_abs_tol": 1e-5, "outer_abs_tol": 1e-4, "ase_rel_tol": 1e-3}


def _recipe_entries():
    """Built-in experiments named after the figures they mirror; each
    name maps to a list of (label, config dict) pairs."""
    recipes = {}
    recipes["fig1-isr-dl"] = [(
        "fig1-isr-dl",
        {"geometry": "macro", "experiment": "isr", "direction": "dl",
         "mix": {"alpha_d": 0.5}, "series": {"max_terms": 600}},
    )]
    recipes["fig2-isr-ul"] = [(
        "fig2-isr-ul",
        {"geometry": "macro", "experiment": "isr", "direction": "ul",
         "mix": {"alpha_d": 0.5}, "series": {"max_terms": 600}},
    )]
    recipes["fig4-cov-dl-macro"] = [(
        "fig4-cov-dl-macro",
        {"geometry": "macro", "experiment": "coverage", "direction": "dl",
         "mode": "both", "mix": {"alpha_d": 0.5}},
    )]
    recipes["fig5-cov-ul-macro"] = [(
        "fig5-cov-ul-macro",
        {"geometry": "macro", "experiment": "coverage", "direction": "ul",
         "mode": "both", "mix": {"alpha_d": 0.5}, "propagation": {"k": 0.0}},
    )]
    recipes["fig6-fpc"] = [
        (
            f"fig6-fpc-{direction}-k{str(k).replace('.', '')}",
            {"geometry": "macro", "experiment": "coverage", "direction": direction,
             "mode": "analytic", "mix": {"alpha_d": 0.5}, "propagation": {"k": k},
             "gamma_grid_db": {"start": -20.0, "stop": 10.0, "step": 1.0}},
        )
        for direction in ("dl", "ul")
        for k in (0.0, 0.4, 0.8, 1.0)
    ]
    for fig, direction in (("fig7-cov-dl-ppp", "dl"), ("fig8-cov-ul-ppp", "ul")):
        recipes[fig] = [
            (
                f"{fig}-{env}-{tdd}",
                {"geometry": "ppp", "experiment": "coverage", "direction": direction,
                 "mode": "both", "mix": {"alpha_d": alpha},
                 "propagation": {"a_db": a_db},
                 "gamma_grid_db": {"start": -20.0, "stop": 20.0, "step": 2.0},
                 "quadrature": FAST_QUAD},
            )
            for env, a_db in (("outdoor", 130.0), ("indoor", 160.0))
            for tdd, alpha in (("stdd", 1.0), ("dtdd", 0.5))
        ]
    for fig, direction in (("fig9-ase-dl", "dl"), ("fig10-ase-ul", "ul")):
        recipes[fig] = [
            (
                f"{fig}-{env}-{tdd}",
                {"geometry": "ppp", "experiment": "ase", "direction": direction,
                 "mix": {"alpha_d": alpha}, "propagation": {"a_db": a_db},
                 "quadrature": FAST_QUAD},
            )
            for env, a_db in (("outdoor", 130.0), ("indoor", 160.0))
            for tdd, alpha in (("stdd", 1.0), ("dtdd", 0.5))
        ]
    return recipes


RECIPES = _recipe_entries()


def run_recipe(name, out_dir=None, seed=None):
    """Run every experiment of a built-in recipe; returns CSV paths."""
    if name not in RECIPES:
        known = ", ".join(sorted(RECIPES))
        raise ConfigError(f"unknown recipe {name!r}; available: {known}")
    paths = []
    for label, data in RECIPES[name]:
        if seed is not None:
            data = dict(data, seed=seed)
        cfg = config_from_dict(data)
        paths.append(run(cfg, out_dir=out_dir, label=label))
    return paths
