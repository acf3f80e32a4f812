"""Tests for config parsing, experiment execution, output files, built-in
recipes, and the command-line entry point."""

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from tddgeom import (
    ConfigError,
    ExperimentConfig,
    MobilePolar,
    PropagationParams,
    RECIPES,
    SmallCellScenario,
    config_from_dict,
    coverage_macro,
    dump_config,
    isr_total,
    load_config,
    mc_sinr_ppp,
    run,
    run_recipe,
    validate,
)
from tddgeom import acceptance, rng, runner
from tddgeom.cli import main
from tddgeom.config import FAST_QUAD


def _write(path, data):
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def test_empty_file_gives_defaults(tmp_path):
    p = tmp_path / "empty.json"
    p.write_text("", encoding="utf-8")
    cfg = load_config(str(p))
    assert cfg == ExperimentConfig()
    assert cfg.geometry == "macro" and cfg.mode == "analytic"


def test_reference_defaults():
    cfg = config_from_dict({})
    assert cfg.prop.two_b == 3.5
    assert cfg.prop.a_db == 130.0
    assert cfg.prop.k == 0.4
    assert cfg.prop.p_dl_dbm == 60.0
    assert cfg.prop.p_star_dbm == 20.0
    assert cfg.prop.p_noise_dbm == -93.0
    assert cfg.mix.alpha_d == 1.0
    assert cfg.lam == 10.0
    assert cfg.gamma_grid_db[0] == -30.0 and cfg.gamma_grid_db[-1] == 30.0
    assert len(cfg.gamma_grid_db) == 61


def test_the_ppp_defaults_are_the_scenario_defaults():
    assert config_from_dict({"geometry": "ppp"}).scenario() == SmallCellScenario()


def test_invalid_field_value_rejected():
    with pytest.raises(ConfigError) as excinfo:
        config_from_dict({"mix": {"alpha_d": 1.2}})
    assert "alpha_d" in str(excinfo.value)


@pytest.mark.parametrize("group, key, value", [
    ("macro", "rings", 2.5),
    ("macro", "rings", True),
    ("series", "max_terms", 2.5),
    ("quadrature", "n_theta", 16.5),
    ("quadrature", "n_rho", 32.5),
    ("quadrature", "n_x", 24.5),
    ("quadrature", "n_serving", 24.5),
    ("quadrature", "max_refinements", 1.5),
])
def test_integer_fields_reject_non_integers(group, key, value):
    with pytest.raises(ConfigError) as excinfo:
        config_from_dict({group: {key: value}})
    assert f"{key} must be an integer" in str(excinfo.value)


@pytest.mark.parametrize("ppp", [
    {"lam": "x"}, {"lam": -1.0}, {"window_radius": 0.0},
    {"p_small_dbm": "x"}, {"p_small_star_dbm": True}, {"p_small_dbm": math.nan},
])
def test_cli_rejects_a_bad_ppp_group_with_exit_2(tmp_path, capsys, ppp):
    path = _write(tmp_path / "ppp.json", {"geometry": "ppp", "ppp": ppp})
    assert main(["run", path, "--out", str(tmp_path)]) == 2
    assert "config error: invalid config:\n  ppp: " in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("p_noise_dbm", "x"), ("p_dl_dbm", True), ("p_star_dbm", [20.0]), ("a_db", math.nan),
])
def test_cli_rejects_a_non_real_power_with_exit_2(tmp_path, capsys, key, value):
    # -inf dBm stays valid: it is a silent transmitter
    assert config_from_dict({"propagation": {"p_noise_dbm": -math.inf}}).prop.p_noise_mw == 0.0
    path = _write(tmp_path / "power.json", {"propagation": {key: value}})
    assert main(["run", path, "--out", str(tmp_path)]) == 2
    assert f"config error: invalid config:\n  propagation: {key} " in capsys.readouterr().err


@pytest.mark.parametrize("group, key, value", [
    ("macro", "delta", "x"), ("macro", "cell_radius", True), ("macro", "load_eta", math.nan),
    ("mix", "alpha_d", True), ("propagation", "two_b", "3.5"), ("propagation", "k", True),
    ("ppp", "lam", True), ("ppp", "window_radius", math.nan),
    ("quadrature", "inner_abs_tol", True), ("quadrature", "outer_abs_tol", "x"),
    ("quadrature", "ase_rel_tol", math.nan), ("series", "rel_tol", True),
])
def test_cli_rejects_a_non_real_field_with_exit_2(tmp_path, capsys, group, key, value):
    # a bool is not taken as 0 or 1, and a string gets a message that
    # names the field
    tree = {"geometry": "ppp" if group == "ppp" else "macro", group: {key: value}}
    path = _write(tmp_path / "field.json", tree)
    assert main(["run", path, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"config error: invalid config:\n  {group}: {key} must be a real number" in err


@pytest.mark.parametrize("tree, message", [
    ({"macro": {"delta": math.inf}}, "macro: delta must lie in (0, inf), got inf"),
    ({"macro": {"cell_radius": math.inf}}, "macro: cell_radius must lie in (0, 0.57735], got inf"),
    ({"geometry": "ppp", "mode": "mc", "ppp": {"window_radius": math.inf}},
     "ppp: window_radius must lie in (0, inf), got inf"),
    ({"geometry": "ppp", "ppp": {"lam": math.inf}}, "ppp: lam must lie in (0, inf), got inf"),
    ({"geometry": "ppp", "ppp": {"lam": 1e-300}}, "ppp: lam 1e-300 is too small"),
    ({"geometry": "ppp", "experiment": "ase", "lambda_grid": [1e-300, 5.0]},
     "lambda_grid: lam 1e-300 is too small"),
    ({"geometry": "ppp", "ppp": {"lam": 1e200}}, "ppp: lam 1e+200 is too large"),
    ({"geometry": "ppp", "experiment": "ase", "lambda_grid": [5.0, 1e200]},
     "lambda_grid: lam 1e+200 is too large"),
    ({"geometry": "ppp", "experiment": "ase", "lambda_grid": [math.nan]},
     "lambda_grid: lam must be a real number"),
    ({"experiment": "isr", "x_grid": [0.1, 1.5]}, "x_grid: distances must be positive and below"),
    ({"experiment": "isr", "x_grid": [math.nan]}, "x_grid: distances must be positive and below"),
    ({"experiment": "isr", "x_grid": [0.1, math.inf]},
     "x_grid: distances must be positive and below"),
    ({"gamma_grid_db": [math.nan]}, "gamma_grid_db: thresholds must be finite and within [-1000, 1000] dB, got nan"),
    ({"geometry": "ppp", "gamma_grid_db": [math.nan]},
     "gamma_grid_db: thresholds must be finite and within [-1000, 1000] dB, got nan"),
    ({"geometry": "ppp", "gamma_grid_db": [0.0, math.inf]},
     "gamma_grid_db: thresholds must be finite and within [-1000, 1000] dB, got inf"),
    ({"experiment": "isr", "x_grid": [0.3], "series": {"rel_tol": math.inf}},
     "series: rel_tol must lie in (0, inf), got inf"),
    ({"quadrature": {"inner_abs_tol": math.inf}}, "quadrature: inner_abs_tol must lie in (0, inf), got inf"),
    ({"quadrature": {"outer_abs_tol": math.inf}}, "quadrature: outer_abs_tol must lie in (0, inf), got inf"),
    ({"quadrature": {"ase_rel_tol": math.inf}}, "quadrature: ase_rel_tol must lie in (0, inf), got inf"),
], ids=["delta", "cell_radius", "window_radius", "lam-inf", "lam-tiny", "lambda_grid-tiny",
        "lam-huge", "lambda_grid-huge", "lambda_grid-nan", "x_grid-beyond-delta", "x_grid-nan",
        "x_grid-inf", "gamma-macro-nan", "gamma-ppp-nan", "gamma-ppp-inf", "series-rel_tol",
        "inner_abs_tol", "outer_abs_tol", "ase_rel_tol"])
def test_cli_rejects_an_infinite_length_or_density_with_exit_2(tmp_path, capsys, tree, message):
    # -inf is a valid power (-inf dBm is a silent transmitter), but not
    # a valid length, density, window, grid entry or tolerance; +inf is
    # valid nowhere
    path = _write(tmp_path / "inf.json", tree)
    assert main(["run", path, "--out", str(tmp_path)]) == 2
    assert f"config error: invalid config:\n  {message}" in capsys.readouterr().err


_ISR = {"experiment": "isr", "x_grid": [0.1]}


@pytest.mark.parametrize("tree, message", [
    ([1.0, 2.0], "config error: config root must be a JSON object"),
    ({"mix": 0.5}, "mix: expected an object"),
    ({"gamma_grid_db": {"start": "a", "stop": 1.0, "step": 1.0}},
     "gamma_grid_db: range needs numeric start, stop, step"),
    ({"gamma_grid_db": {"start": 0.0, "stop": 1.0}}, "gamma_grid_db: range needs numeric start, stop, step"),
    ({"experiment": "isr", "x_grid": [0.1, "x"]}, "x_grid: entries must be numbers"),
    ({"n_draws": 2.5}, "n_draws: must be an integer"),
    ({"seed": "1"}, "seed: must be an integer"),
    ({"seed": True}, "seed: must be an integer"),
    ({"n_draws": 0}, "n_draws: must be at least 1"),
    ({"seed": -1}, "seed: must be in [0, 2**64)"),
    ({"seed": 2**64}, "seed: must be in [0, 2**64)"),
    ({"out": 3}, "out: must be a string"),
    ({"label": ["a"]}, "label: must be a string"),
    ({"plot_script": 1}, "plot_script: must be true or false"),
    ({"propagation": {"two_b": 2.0}}, "propagation: two_b must lie in (2, inf), got 2.0"),
    ({"propagation": {"k": 1.5}}, "propagation: k must lie in [0, 1]"),
    ({"macro": {"cell_radius": 0.6}}, "macro: cell_radius must lie in (0, 0.57735], got 0.6"),
    ({"macro": {"load_eta": 0.0}}, "macro: load_eta must lie in (0, 1]"),
    (dict(_ISR, label="sub/x"), "label: must be a file name, with no path separator or NUL, got 'sub/x'"),
    (dict(_ISR, label="x\0y"), "label: must be a file name, with no path separator or NUL, got 'x\\x00y'"),
    ({**_ISR, "--out": "taken"}, "config error: cannot create output directory 'taken'"),
    (dict(_ISR, out="taken"), "config error: cannot create output directory 'taken'"),
    ({**_ISR, "TDDGEOM_OUT": "taken"}, "config error: cannot create output directory 'taken'"),
], ids=["root", "group", "range-key", "range-missing-key", "list-entry", "n_draws-float", "seed-string",
        "seed-bool", "n_draws-zero", "seed-negative", "seed-2**64", "out", "label", "plot_script", "two_b", "k",
        "cell_radius", "load_eta", "label-separator", "label-nul", "out-file-flag", "out-file-config",
        "out-file-env"])
def test_cli_rejects_a_malformed_config_with_exit_2(tmp_path, capsys, monkeypatch, tree, message):
    # a tree's "--out" and "TDDGEOM_OUT" entries are no config keys: they
    # name the output directory by the flag and by the environment, where
    # "taken" is a file.  Without them or "out", the flag names "out".
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("TDDGEOM_OUT", raising=False)
    (tmp_path / "taken").write_text("kept\n")
    flags = [] if {"out", "TDDGEOM_OUT"} & set(tree) else ["--out", tree["--out"] if "--out" in tree else "out"]
    if "TDDGEOM_OUT" in tree:
        monkeypatch.setenv("TDDGEOM_OUT", tree["TDDGEOM_OUT"])
    if isinstance(tree, dict):
        tree = {key: value for key, value in tree.items() if key not in ("--out", "TDDGEOM_OUT")}
    path = _write(tmp_path / "bad.json", tree)
    assert main(["run", path, *flags]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json", "taken"]
    assert (tmp_path / "taken").read_text() == "kept\n"


@pytest.mark.parametrize("taken", ["x.csv", "x.meta.json"])
def test_cli_reports_an_output_file_it_cannot_write_with_exit_2(tmp_path, capsys, taken):
    (tmp_path / "out" / taken).mkdir(parents=True)
    path = _write(tmp_path / "x.json", dict(_ISR, label="x"))
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"config error: cannot write output file {str(tmp_path / 'out' / taken)!r}" in err
    assert "Traceback" not in err
    # a failed write leaves no partial run: the CSV written before the
    # sidecar is removed
    assert [p.name for p in (tmp_path / "out").iterdir()] == [taken]


def test_run_refuses_a_label_that_is_no_file_name_before_computing(tmp_path, monkeypatch):
    def computed(cfg):
        raise AssertionError("computed before the label was checked")

    monkeypatch.setattr(runner, "_isr_rows", computed)
    cfg = config_from_dict(_ISR)
    for label in ("sub/x", "x\0y"):
        with pytest.raises(ConfigError, match="label: must be a file name"):
            run(cfg, out_dir=str(tmp_path / "out"), label=label)
    assert not list(tmp_path.iterdir())


def test_run_refuses_a_config_that_the_loader_refuses(tmp_path):
    # a config built in code is checked by the rules of a config file
    # before any directory is made, so it cannot compute what no file
    # could ask for
    for cfg, message in ((ExperimentConfig(geometry="hex"), "geometry: must be one of"),
                         (ExperimentConfig(experiment="ase"), "ase experiments require geometry=ppp")):
        with pytest.raises(ConfigError, match=message):
            run(cfg, out_dir=str(tmp_path / "out"))
    assert not list(tmp_path.iterdir())


def test_a_seed_must_name_the_stream_it_uses(tmp_path, capsys):
    # the streams take a seed as one 64-bit key word, so a seed of 2**64
    # would silently reuse the streams of seed 0
    assert config_from_dict({"seed": 2**64 - 1}).seed == 2**64 - 1
    ok = _write(tmp_path / "ok.json", {"experiment": "isr", "x_grid": [0.1]})
    assert main(["run", ok, "--seed", "18446744073709551616", "--out", str(tmp_path)]) == 2
    assert main(["recipe", "fig1-isr-dl", "--seed", "-1", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.count("seed: must be in [0, 2**64)") == 2
    assert not list(tmp_path.glob("*.csv"))


def test_a_recipe_runs_at_the_seed_it_is_given(tmp_path, monkeypatch):
    data = {"geometry": "macro", "experiment": "coverage", "mode": "mc", "macro": {"rings": 2},
            "gamma_grid_db": [0.0, 5.0], "n_draws": 150}
    monkeypatch.setitem(RECIPES, "tiny", [("tiny", data)])
    run_recipe("tiny", out_dir=str(tmp_path / "recipe"), seed=5)
    run(config_from_dict(dict(data, seed=5)), out_dir=str(tmp_path / "config"), label="tiny")
    read = lambda d: (tmp_path / d / "tiny.csv").read_bytes()
    assert read("recipe") == read("config")
    assert json.loads((tmp_path / "recipe" / "tiny.meta.json").read_text(encoding="utf-8"))["seed"] == 5


@pytest.mark.parametrize("lam, two_b", [(1e280, 2.1), (1e-200, 2.5)])
def test_ppp_group_is_checked_with_the_configured_propagation(lam, two_b):
    # each density is out of range at the default 2b = 3.5 and in range
    # at the configured one
    cfg = config_from_dict({"geometry": "ppp", "ppp": {"lam": lam}, "propagation": {"two_b": two_b}})
    assert cfg.scenario() == SmallCellScenario(lam=lam, prop=PropagationParams(two_b=two_b))
    with pytest.raises(ConfigError, match="ppp: lam"):
        config_from_dict({"geometry": "ppp", "ppp": {"lam": lam}})


def test_unknown_keys_reported_itemized():
    with pytest.raises(ConfigError) as excinfo:
        config_from_dict({
            "propagation": {"twob": 3.5},
            "not_a_section": 1,
            "mix": {"alpha_d": 0.5},
        })
    message = str(excinfo.value)
    assert "twob" in message and "not_a_section" in message
    # one line per problem
    assert len([ln for ln in message.split("\n") if ln.strip().startswith(("unknown", "propagation"))]) >= 2


# one valid grid of each kind, in the experiment that reads it
_GRIDS = {
    "gamma_grid_db": ({"experiment": "coverage"}, -5.0, 5.0),
    "x_grid": ({"experiment": "isr"}, 0.1, 0.2),
    "lambda_grid": ({"geometry": "ppp", "experiment": "ase", "quadrature": FAST_QUAD}, 5.0, 10.0),
}
_BAD_GRIDS = {
    "bool-entry": (lambda lo, hi: [True, hi], "entries must be numbers"),
    "string-entry": (lambda lo, hi: [lo, str(hi)], "entries must be numbers"),
    "empty": (lambda lo, hi: [], "must hold at least one point"),
    "descending": (lambda lo, hi: [hi, lo], "must be strictly increasing"),
    "repeated": (lambda lo, hi: [lo, lo, hi], "must be strictly increasing"),
    "range-bool-key": (lambda lo, hi: {"start": lo, "stop": hi, "step": True},
                       "range needs numeric start, stop, step"),
    "range-string-key": (lambda lo, hi: {"start": str(lo), "stop": hi, "step": hi - lo},
                         "range needs numeric start, stop, step"),
    "range-stop-below-start": (lambda lo, hi: {"start": hi, "stop": lo, "step": hi - lo},
                               "must hold at least one point"),
    "range-stop-far-below-start": (lambda lo, hi: {"start": lo, "stop": -1e300, "step": hi - lo},
                                   "must hold at least one point"),
}


@pytest.mark.parametrize("case", list(_BAD_GRIDS))
@pytest.mark.parametrize("key", list(_GRIDS))
def test_cli_refuses_a_bad_grid_with_exit_2(tmp_path, capsys, key, case):
    # every grid, given as a list or as a range, takes real numbers only
    # (a bool is not 1 and a string is not a number), holds a point and
    # rises strictly, whichever experiment reads it
    tree, lo, hi = _GRIDS[key]
    make, message = _BAD_GRIDS[case]
    path = _write(tmp_path / "grid.json", dict(tree, **{key: make(lo, hi)}))
    out = tmp_path / "out"
    assert main(["run", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"config error: invalid config:\n  {key}: {message}" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("key", list(_GRIDS))
def test_a_grid_loads_to_the_same_floats_as_a_list_or_a_range(key):
    tree, lo, hi = _GRIDS[key]
    from_range = getattr(config_from_dict(dict(tree, **{key: {"start": lo, "stop": hi, "step": hi - lo}})), key)
    from_list = getattr(config_from_dict(dict(tree, **{key: [lo, hi]})), key)
    assert from_range == from_list == (lo, hi)
    assert all(type(v) is float for v in from_range + from_list)


def test_grid_range_form():
    cfg = config_from_dict({"gamma_grid_db": {"start": -10.0, "stop": 10.0, "step": 5.0}})
    assert cfg.gamma_grid_db == (-10.0, -5.0, 0.0, 5.0, 10.0)
    with pytest.raises(ConfigError):
        config_from_dict({"gamma_grid_db": {"start": 0.0, "stop": 10.0, "step": -1.0}})
    with pytest.raises(ConfigError):
        config_from_dict({"gamma_grid_db": {"start": 0.0, "stop": 10.0, "step": 1.0, "by": 2}})
    with pytest.raises(ConfigError):
        config_from_dict({"gamma_grid_db": "everything"})
    for bad in ({"start": math.nan, "stop": 1.0, "step": 1.0},
                {"start": 0.0, "stop": math.inf, "step": 1.0},
                {"start": 0.0, "stop": 1.0, "step": math.inf},
                {"start": 0.0, "stop": 1e300, "step": 1e-300}):
        with pytest.raises(ConfigError, match="gamma_grid_db: range needs a positive step"):
            config_from_dict({"gamma_grid_db": bad})
    # a finite count too large to allocate
    with pytest.raises(ConfigError, match="gamma_grid_db: range has 1000000000000000001 points, more than"):
        config_from_dict({"gamma_grid_db": {"start": 0.0, "stop": 1e18, "step": 1.0}})


def test_semantic_cross_checks():
    with pytest.raises(ConfigError):
        config_from_dict({"experiment": "isr", "geometry": "ppp"})
    with pytest.raises(ConfigError):
        config_from_dict({"experiment": "isr", "mode": "mc"})
    with pytest.raises(ConfigError):
        config_from_dict({"experiment": "ase", "geometry": "macro"})
    with pytest.raises(ConfigError):
        config_from_dict({"experiment": "isr", "x_grid": [0.3, 0.2]})
    with pytest.raises(ConfigError):
        config_from_dict({"experiment": "ase", "geometry": "ppp", "lambda_grid": [10.0, 10.0]})
    with pytest.raises(ConfigError):
        config_from_dict({"geometry": "torus"})


def test_config_round_trip():
    source = {
        "geometry": "ppp",
        "experiment": "coverage",
        "direction": "ul",
        "mode": "both",
        "mix": {"alpha_d": 0.5},
        "propagation": {"k": 0.8, "a_db": 160.0},
        "ppp": {"lam": 20.0, "p_small_dbm": 24.0},
        "gamma_grid_db": [-10.0, 0.0, 10.0],
        "n_draws": 500,
        "seed": 7,
        "plot_script": True,
    }
    cfg = config_from_dict(source)
    dumped = dump_config(cfg)
    # the dump is JSON-clean and reloads to the identical config
    rebuilt = config_from_dict(json.loads(json.dumps(dumped)))
    assert rebuilt == cfg
    assert dump_config(rebuilt) == dumped


def test_run_writes_csv_and_metadata(tmp_path):
    cfg = config_from_dict({
        "geometry": "macro",
        "experiment": "coverage",
        "direction": "dl",
        "mode": "analytic",
        "mix": {"alpha_d": 1.0},
        "gamma_grid_db": [-5.0, 0.0, 5.0],
        "label": "smoke",
    })
    csv_path = run(cfg, out_dir=str(tmp_path))
    assert csv_path.endswith("smoke.csv")
    lines = (tmp_path / "smoke.csv").read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == "gamma_db,value,ci_halfwidth"
    assert len(lines) == 4
    for line, g in zip(lines[1:], (-5.0, 0.0, 5.0)):
        gamma_db, value, ci = (float(tok) for tok in line.split(","))
        assert gamma_db == g
        assert ci == 0.0
        direct = coverage_macro(g, "dl", cfg.macro, cfg.prop, cfg.mix, ctrl=cfg.series)
        assert value == pytest.approx(direct, rel=1e-12)
    meta = json.loads((tmp_path / "smoke.meta.json").read_text(encoding="utf-8"))
    assert set(meta) == {"config", "seed", "version", "wall_time_s"}
    assert meta["seed"] == cfg.seed
    assert meta["version"].startswith("0.")
    assert config_from_dict(meta["config"]) == cfg


@pytest.mark.skipif(shutil.which("git") is None, reason="git is not on PATH")
def test_version_ignores_a_repository_around_the_source_tree(tmp_path):
    # a source tree with no .git of its own, inside a repository with a
    # commit: the version names no commit rather than the outer one, also
    # where the environment points git at that repository, as inside a
    # git hook
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false", "-C", str(tmp_path)]
    for args in (["init", "-q"], ["commit", "-q", "--allow-empty", "-m", "outer"]):
        subprocess.run(git + args, check=True, capture_output=True, timeout=30)
    package = os.path.dirname(os.path.abspath(runner.__file__))
    shutil.copytree(package, tmp_path / "tree" / "src" / "tddgeom", ignore=shutil.ignore_patterns("__pycache__"))
    script = ("from tddgeom import __version__; from tddgeom.runner import _version_string; "
              "print(_version_string(), __version__)")
    env = dict(os.environ, PYTHONPATH=str(tmp_path / "tree" / "src"), PYTHONDONTWRITEBYTECODE="1")
    for extra in ({}, {"GIT_DIR": str(tmp_path / ".git")}):
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=dict(env, **extra), timeout=60)
        assert done.returncode == 0, done.stderr
        stamped, version = done.stdout.split()
        assert stamped == version, extra


@pytest.mark.parametrize("experiment, extra, draws", [
    ("coverage", {"geometry": "macro", "macro": {"rings": 2}, "gamma_grid_db": [0.0]}, 300),
    ("ase", {"geometry": "ppp", "lambda_grid": [5.0, 10.0]}, 600),
])
def test_run_records_monte_carlo_draw_rate(tmp_path, monkeypatch, experiment, extra, draws):
    # both samplers run on the map's workers
    monkeypatch.setattr(rng, "workers", lambda: 3)
    data = {"experiment": experiment, "mode": "mc", "n_draws": 300, "label": "rate", **extra}
    run(config_from_dict(data), out_dir=str(tmp_path))
    meta = json.loads((tmp_path / "rate.meta.json").read_text(encoding="utf-8"))
    assert set(meta) == {"config", "seed", "version", "wall_time_s", "mc_draws", "mc_draws_per_s", "mc_workers"}
    assert meta["mc_draws"] == draws
    assert meta["mc_draws_per_s"] > 0
    assert meta["mc_workers"] == 3
    # the rate is the draws over the recorded wall time, up to the
    # rounding of both (to 1 ms and to 0.1 draw/s)
    rate, wall = meta["mc_draws_per_s"], meta["wall_time_s"]
    assert rate * wall == pytest.approx(draws, abs=0.0005 * rate + 0.05 * wall + 1e-9)


def test_run_is_byte_deterministic(tmp_path):
    data = {
        "geometry": "macro",
        "experiment": "coverage",
        "mode": "mc",
        "mix": {"alpha_d": 0.5},
        "macro": {"rings": 2},
        "gamma_grid_db": [-10.0, 0.0, 10.0],
        "n_draws": 200,
        "seed": 5,
        "label": "det",
    }
    a = run(config_from_dict(data), out_dir=str(tmp_path / "a"))
    b = run(config_from_dict(data), out_dir=str(tmp_path / "b"))
    with open(a, "rb") as fa, open(b, "rb") as fb:
        assert fa.read() == fb.read()


def test_output_dir_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("TDDGEOM_OUT", str(tmp_path / "envout"))
    cfg = config_from_dict({
        "experiment": "isr",
        "x_grid": [0.1],
        "label": "envtest",
    })
    csv_path = run(cfg)
    assert csv_path == str(tmp_path / "envout" / "envtest.csv")
    assert (tmp_path / "envout" / "envtest.meta.json").exists()


def test_plot_script_emission(tmp_path):
    cfg = config_from_dict({
        "experiment": "isr",
        "x_grid": [0.1, 0.2],
        "label": "withplot",
        "plot_script": True,
    })
    run(cfg, out_dir=str(tmp_path))
    script = (tmp_path / "withplot.gp").read_text(encoding="utf-8")
    assert "plot" in script and "withplot.csv" in script


def test_isr_csv_long_format(tmp_path):
    for direction, components in (("dl", ["dl_to_dl", "ul_to_dl", "total"]),
                                  ("ul", ["ul_to_ul", "dl_to_ul", "total"])):
        cfg = config_from_dict({
            "experiment": "isr",
            "direction": direction,
            "mix": {"alpha_d": 0.5},
            "x_grid": [0.1, 0.2],
            "label": f"isr-{direction}",
        })
        run(cfg, out_dir=str(tmp_path))
        lines = (tmp_path / f"isr-{direction}.csv").read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == "x,isr_component,value"
        assert len(lines) == 7
        assert [line.split(",")[1] for line in lines[1:4]] == components
        parts = isr_total(MobilePolar(0.1), cfg.macro, cfg.prop, cfg.mix, ctrl=cfg.series)
        totals = {"dl": parts.total_dl, "ul": parts.total_ul}
        for line in lines[1:4]:
            x, name, value = line.split(",")
            expected = totals[direction] if name == "total" else getattr(parts, name)
            assert float(value) == pytest.approx(expected, rel=1e-12)


def test_ase_csv_monte_carlo(tmp_path):
    cfg = config_from_dict({
        "geometry": "ppp",
        "experiment": "ase",
        "direction": "dl",
        "mode": "mc",
        "mix": {"alpha_d": 0.5},
        "lambda_grid": [5.0],
        "n_draws": 150,
        "seed": 3,
        "label": "ase",
    })
    run(cfg, out_dir=str(tmp_path))
    lines = (tmp_path / "ase.csv").read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == "lambda,ase,ci_halfwidth"
    lam, value, ci = (float(tok) for tok in lines[1].split(","))
    assert lam == 5.0
    scenario = cfg.scenario()
    scenario = type(scenario)(lam=5.0, prop=cfg.prop, mix=cfg.mix,
                              p_small_dbm=cfg.p_small_dbm, p_small_star_dbm=cfg.p_small_star_dbm)
    eff = np.log2(1.0 + mc_sinr_ppp(scenario, "dl", 150, seed=3))
    assert value == pytest.approx(float(eff.mean()), rel=1e-12)
    assert ci == pytest.approx(float(1.96 * eff.std(ddof=1) / math.sqrt(eff.size)), rel=1e-12)


@pytest.mark.parametrize("experiment, mode, header", [
    ("coverage", "analytic", "gamma_db,value,ci_halfwidth"),
    ("coverage", "mc", "gamma_db,value,ci_halfwidth"),
    ("coverage", "both", "gamma_db,value_analytic,ci_halfwidth_analytic,value_mc,ci_halfwidth_mc"),
    ("ase", "analytic", "lambda,ase,ci_halfwidth"),
    ("ase", "mc", "lambda,ase,ci_halfwidth"),
    ("ase", "both", "lambda,ase_analytic,ci_halfwidth_analytic,ase_mc,ci_halfwidth_mc"),
])
def test_csv_header_of_each_experiment_and_mode(tmp_path, experiment, mode, header):
    cfg = config_from_dict({
        "geometry": "ppp", "experiment": experiment, "mode": mode, "mix": {"alpha_d": 0.5},
        "gamma_grid_db": [-5.0, 5.0], "lambda_grid": [10.0], "n_draws": 200, "quadrature": FAST_QUAD,
        "label": "table",
    })
    run(cfg, out_dir=str(tmp_path))
    lines = (tmp_path / "table.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == header
    assert len(lines) == 1 + (2 if experiment == "coverage" else 1)
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == len(header.split(","))
        # an analytic column's half-width is zero
        if mode != "mc":
            assert fields[2] == "0.0"


def test_recipe_catalog():
    assert set(RECIPES) == {
        "fig1-isr-dl", "fig2-isr-ul", "fig4-cov-dl-macro", "fig5-cov-ul-macro",
        "fig6-fpc", "fig7-cov-dl-ppp", "fig8-cov-ul-ppp", "fig9-ase-dl", "fig10-ase-ul",
    }
    labels = set()
    for entries in RECIPES.values():
        for label, data in entries:
            assert label not in labels
            labels.add(label)
            config_from_dict(data)
    with pytest.raises(ConfigError):
        run_recipe("fig3-does-not-exist")


def test_cli_run_success(tmp_path, capsys):
    cfg_path = _write(tmp_path / "cfg.json", {
        "experiment": "isr",
        "x_grid": [0.1],
        "label": "cli",
    })
    code = main(["run", cfg_path, "--out", str(tmp_path)])
    assert code == 0
    printed = capsys.readouterr().out.strip()
    assert printed.endswith("cli.csv")
    assert (tmp_path / "cli.csv").exists()


def test_cli_seed_override_changes_output(tmp_path):
    data = {
        "geometry": "macro",
        "experiment": "coverage",
        "mode": "mc",
        "macro": {"rings": 2},
        "gamma_grid_db": [0.0],
        "n_draws": 150,
        "label": "seeded",
    }
    cfg_path = _write(tmp_path / "cfg.json", data)
    assert main(["run", cfg_path, "--out", str(tmp_path / "a"), "--seed", "5"]) == 0
    assert main(["run", cfg_path, "--out", str(tmp_path / "b"), "--seed", "5"]) == 0
    assert main(["run", cfg_path, "--out", str(tmp_path / "c"), "--seed", "6"]) == 0
    read = lambda d: (tmp_path / d / "seeded.csv").read_bytes()
    assert read("a") == read("b")
    assert read("a") != read("c")


def test_cli_config_errors_exit_2(tmp_path, capsys):
    assert main(["run", str(tmp_path / "missing.json")]) == 2
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json", encoding="utf-8")
    assert main(["run", str(bad_json)]) == 2
    bad_values = _write(tmp_path / "vals.json", {"mix": {"alpha_d": 2.0}})
    assert main(["run", bad_values]) == 2
    huge_range = _write(tmp_path / "range.json", {"gamma_grid_db": {"start": 0, "stop": 1e18, "step": 1}})
    assert main(["run", huge_range, "--out", str(tmp_path)]) == 2
    ok = _write(tmp_path / "ok.json", {"experiment": "isr", "x_grid": [0.1]})
    assert main(["run", ok, "--seed", "-1", "--out", str(tmp_path)]) == 2
    # one draw has no sample standard deviation for the ASE half-width
    for mode in ("mc", "both"):
        one_draw = _write(tmp_path / f"ase-{mode}.json", {
            "geometry": "ppp", "experiment": "ase", "mode": mode, "n_draws": 1, "lambda_grid": [10.0],
            "quadrature": FAST_QUAD})
        assert main(["run", one_draw, "--out", str(tmp_path)]) == 2
    assert main(["recipe", "fig3-does-not-exist"]) == 2
    capsys.readouterr()


def test_cli_nonconvergence_exits_3(tmp_path, capsys):
    # the cross-interference series diverges past x = 1 - R/delta, and
    # the run must report that rather than write a file, whatever the
    # term cap
    for series in ({}, {"max_terms": 600}):
        cfg_path = _write(tmp_path / "diverges.json", {
            "experiment": "isr",
            "direction": "dl",
            "mix": {"alpha_d": 0.5},
            "series": series,
            "x_grid": [0.45],
            "label": "diverges",
        })
        assert main(["run", cfg_path, "--out", str(tmp_path)]) == 3
        assert not (tmp_path / "diverges.csv").exists()
    capsys.readouterr()


def test_cli_recipe_runs(tmp_path, capsys):
    assert main(["recipe", "fig1-isr-dl", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert out and out[0].endswith("fig1-isr-dl.csv")
    lines = (tmp_path / "fig1-isr-dl.csv").read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == "x,isr_component,value"
    # default x grid, three components per radius
    assert len(lines) == 1 + 3 * 20


def test_cli_validate_quick(capsys):
    code = main(["validate", "--quick"])
    report = capsys.readouterr().out
    assert code == 0
    assert "PASS" in report and "FAIL" not in report


def _truth(label, holds):
    return lambda: [(label, holds, True)]


@pytest.fixture
def fake_criteria(monkeypatch):
    monkeypatch.setattr(acceptance, "CRITERIA", (
        acceptance.Criterion(1, "fake-pass", True, _truth("ok", True)),
        acceptance.Criterion(2, "fake-fail", False, _truth("bad", False)),
    ))


def test_validate_reports_a_failing_criterion(fake_criteria, capsys):
    report, passed = validate()
    assert not passed
    assert "criterion 02 fake-fail: bad False (req True) <- FAIL -> FAIL" in report.split("\n")
    assert report.endswith("validation FAILED")
    assert main(["validate"]) == 4
    assert "validation FAILED" in capsys.readouterr().out


def test_validate_quick_runs_only_quick_criteria(fake_criteria):
    assert validate(quick=True) == ("criterion 01 fake-pass: ok True (req True) -> PASS\nall checks passed", True)


def test_cli_prints_each_verdict_as_it_finishes(monkeypatch, capsys):
    def second():
        assert "criterion 01 fake-pass: ok True (req True) -> PASS" in capsys.readouterr().out
        yield "ok", True, True

    monkeypatch.setattr(acceptance, "CRITERIA", (
        acceptance.Criterion(1, "fake-pass", True, _truth("ok", True)),
        acceptance.Criterion(2, "fake-second", False, second),
    ))
    assert main(["validate"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "criterion 02 fake-second: ok True (req True) -> PASS", "all checks passed"]
