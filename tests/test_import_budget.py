"""The package must not load scipy: importing scipy.special alone raises
the peak memory of an analytic run from about 35 to 59 MB and its
start-up time from about 0.24 to 0.49 s.  scipy is a test dependency
only, so every path below, the macro inverses and the quick acceptance
criteria included, must run without it.

Nor may the import or the analytic paths load concurrent.futures, which
costs about 7 to 10 ms of start-up: only the Monte Carlo samplers'
worker map needs it.

Nor may any module but rng import threading or concurrent.futures:
rng.chunk_map owns the sampler workers and the state each keeps across
its jobs, so no sampler keeps thread state of its own.

Nor may a module reach 4,096 parser tokens.  A process that runs with
PYTHONDONTWRITEBYTECODE=1 compiles every module from source, and from
that count on the parser's token buffer doubles: compile() of the
module then peaks 0.25 to 0.36 MB higher, which shows in the peak
memory of every run."""

import ast
import os
import subprocess
import sys
import tokenize

import pytest

import tddgeom

_SCRIPT = """
import sys
import tddgeom as tg
print("concurrent.futures" in sys.modules)
from tddgeom.config import FAST_QUAD

net, prop, mix = tg.MacroNetwork(), tg.PropagationParams(), tg.TddMix(alpha_d=0.5)
for direction in ("dl", "ul"):
    tg.coverage_macro(0.0, direction, net, prop, mix)
for alpha_d in (0.0, 1.0):
    tg.coverage_macro(0.0, "dl", net, prop, tg.TddMix(alpha_d=alpha_d))
for direction in ("dl", "ul"):
    for grid in ([-10.0, 0.0, 10.0], [10.0, 0.0, -10.0]):
        tg.coverage_macro(grid, direction, net, prop, mix)
y = tg.downlink_inverse_sinr(0.3, net, prop, mix)
for method in ("exact", "series"):
    tg.inv_d(y, net, prop, mix, method=method)
scenario = tg.SmallCellScenario(lam=10.0, mix=mix)
tg.coverage_ppp_dl(0.0, scenario, tg.QuadratureControl(**FAST_QUAD))
for coverage in (tg.coverage_ppp_dl, tg.coverage_ppp_ul):
    for grid in ([-10.0, 0.0, 10.0], [10.0, 0.0, -10.0]):
        coverage(grid, scenario, tg.QuadratureControl(**FAST_QUAD))
tg.ase(scenario, "dl", tg.QuadratureControl(**FAST_QUAD))
print("concurrent.futures" in sys.modules)
tg.mc_coverage_macro(net, prop, mix, "dl", [0.0], 50, seed=1)
tg.mc_coverage_ppp(scenario, "dl", [0.0], 50, seed=1)
tg.validate(quick=True)
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


@pytest.fixture(scope="module")
def loaded():
    """What the script printed: whether concurrent.futures was loaded
    after the import and after the analytic paths, then the scipy
    modules loaded by the end.  A leaked numpy RuntimeWarning fails the
    script, as it fails the suite."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(tddgeom.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    # the suite's warning filter does not reach a child process
    done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", _SCRIPT],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_benchmarked_paths_do_not_load_scipy(loaded):
    assert loaded[2] == "[]"


def test_import_and_analytic_paths_do_not_load_a_thread_pool(loaded):
    assert loaded[:2] == ["False", "False"]


def _imported_modules(path):
    """The absolute modules a source file imports, at any depth."""
    with open(path, "rb") as fh:
        tree = ast.parse(fh.read(), path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_only_the_chunk_map_imports_threads():
    package = os.path.dirname(os.path.abspath(tddgeom.__file__))
    found = [f"tddgeom/{name} imports {module}" for name in sorted(os.listdir(package))
             if name.endswith(".py") and name != "rng.py"
             for module in _imported_modules(os.path.join(package, name))
             if module.split(".")[0] in ("threading", "concurrent")]
    assert not found, f"{'; '.join(found)}: a worker's state belongs in its rng.chunk_map workspace"


# tokens the parser reads past which it doubles its token buffer
_COMPILE_STEP = 4096


def _parser_tokens(path):
    """The tokens of a source file, without comments, blank lines and
    the encoding marker."""
    with open(path, "rb") as fh:
        return sum(1 for token in tokenize.tokenize(fh.readline)
                   if token.type not in (tokenize.ENCODING, tokenize.COMMENT, tokenize.NL))


def test_every_module_stays_below_the_compile_step():
    package = os.path.dirname(os.path.abspath(tddgeom.__file__))
    counts = {name: _parser_tokens(os.path.join(package, name))
              for name in sorted(os.listdir(package)) if name.endswith(".py")}
    over = [f"tddgeom/{name} has {count:,} parser tokens" for name, count in counts.items() if count >= _COMPILE_STEP]
    assert not over, f"{'; '.join(over)}: at or past the {_COMPILE_STEP:,}-token compile step, split it by role"
