"""The package must not load scipy: importing scipy.special alone raises
the peak memory of an analytic run from about 35 to 59 MB and its
start-up time from about 0.24 to 0.49 s.  scipy is a test dependency
only, so every path below, the macro inverses and the quick acceptance
criteria included, must run without it.

Nor may the import or the analytic paths load concurrent.futures, which
costs about 7 to 10 ms of start-up: only the Monte Carlo samplers'
worker map needs it."""

import os
import subprocess
import sys

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
    modules loaded by the end."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(tddgeom.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _SCRIPT], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_benchmarked_paths_do_not_load_scipy(loaded):
    assert loaded[2] == "[]"


def test_import_and_analytic_paths_do_not_load_a_thread_pool(loaded):
    assert loaded[:2] == ["False", "False"]
