"""Running an experiment: the curve it computes, the files it writes,
and the built-in recipes named after the paper's figures.

:func:`run` takes a resolved :class:`tddgeom.config.ExperimentConfig`
and writes one CSV, a meta.json sidecar with the canonical config, and
optionally a gnuplot script.  A recipe is a list of labelled config
trees, each resolved by :func:`tddgeom.config.config_from_dict`.
"""

import dataclasses
import functools
import json
import os
import subprocess
import time

import numpy as np

from . import hexgrid, macro_analytic, macro_isr, ppp_ase, ppp_model, ppp_sampler, rng
from .config import FAST_QUAD, _check_label, config_from_dict, dump_config
from .errors import ConfigError
from .params import MobilePolar


def _format_value(x):
    if isinstance(x, float):
        return repr(float(x))
    return str(x)


def _csv_text(header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_format_value(v) for v in row))
    return "\n".join(lines) + "\n"


def _write(files):
    """Write each (path, text) of files in turn.  A failed write removes
    the files this call already wrote, so a run leaves all of its files
    or none, and raises ConfigError naming the path."""
    written = []
    for path, text in files:
        try:
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                written.append(path)
                fh.write(text)
        except OSError as exc:
            for done in written:
                os.remove(done)
            raise ConfigError(f"cannot write output file {path!r}: {exc}") from exc


@functools.cache
def _version_string():
    from . import __version__

    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    # the ceiling stops git at the source root, so a tree with no .git of
    # its own is not stamped with the commit of a repository around it.
    # An inherited GIT_DIR, as inside a git hook, overrides both the
    # ceiling and -C, so every GIT_ variable is dropped.
    env = {key: value for key, value in os.environ.items() if not key.startswith("GIT_")}
    env["GIT_CEILING_DIRECTORIES"] = os.path.dirname(root)
    try:
        described = subprocess.run(
            ["git", "-C", root, "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=5, env=env,
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
            curve = ppp_sampler.mc_coverage_ppp(
                cfg.scenario(), cfg.direction, grid, cfg.n_draws, cfg.seed)
        columns["mc"] = (curve.value, curve.ci_halfwidth)
    return _curve_table("gamma_db", grid, "value", columns)


def _isr_rows(cfg):
    rows = []
    for x in cfg.x_grid:
        parts = macro_isr.isr_total(MobilePolar(r=x), cfg.macro, cfg.prop, cfg.mix, ctrl=cfg.series)
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
        means, ses = np.empty(len(lams)), np.empty(len(lams))
        for i, scenario in enumerate(scenarios):
            means[i], ses[i] = ppp_sampler._spectral_efficiency(scenario, cfg.direction, cfg.n_draws, cfg.seed)
        columns["mc"] = (means, 1.96 * ses)
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
    (both samplers run on :func:`rng.workers` threads).  A config that
    config_from_dict refuses, a label that is no file name, or an output
    directory that cannot be made, raises ConfigError before anything is
    computed; an output file that cannot be written raises ConfigError
    after, and leaves none of the run's files behind.
    """
    tree = dump_config(cfg)
    cfg = config_from_dict(tree)
    out = out_dir or cfg.out or os.environ.get("TDDGEOM_OUT") or "."
    name = label or cfg.label or f"{cfg.geometry}-{cfg.experiment}-{cfg.direction}"
    _check_label(name)
    try:
        os.makedirs(out, exist_ok=True)
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise ConfigError(f"cannot create output directory {out!r}: {exc}") from exc

    start = time.perf_counter()
    if cfg.experiment == "coverage":
        header, rows = _coverage_rows(cfg)
    elif cfg.experiment == "isr":
        header, rows = _isr_rows(cfg)
    else:
        header, rows = _ase_rows(cfg)
    wall = time.perf_counter() - start

    csv_path = os.path.join(out, f"{name}.csv")
    meta = {
        "config": tree,
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
    files = [(csv_path, _csv_text(header, rows)),
             (os.path.join(out, f"{name}.meta.json"), json.dumps(meta, indent=2) + "\n")]
    if cfg.plot_script:
        files.append((os.path.join(out, f"{name}.gp"), _plot_script_text(os.path.basename(csv_path), header)))
    _write(files)
    return csv_path


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
