"""Golden reports: the committed ``demos/out`` verify reports regenerate.

The runs are those of ``demos/05_isoparametric_verification.py``.  Verdicts
and strings must match exactly, numbers to 1e-12 max(1, |v|).
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from minkgeom import isoparametric as iso

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_REL = 1e-12


def _demo05():
    path = ROOT / "demos" / "05_isoparametric_verification.py"
    spec = importlib.util.spec_from_file_location("demo05", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


DEMO05 = _demo05()


def _assert_matches(got, want, path="$"):
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), path
        for key in want:
            _assert_matches(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_matches(g, w, f"{path}[{i}]")
    elif isinstance(want, (bool, str)) or want is None:
        assert got == want and type(got) is type(want), path
    else:
        assert abs(got - want) <= GOLDEN_REL * max(1.0, abs(want)), (path, got, want)


@pytest.mark.parametrize("name,norm,field,levels", DEMO05.runs, ids=[r[0] for r in DEMO05.runs])
def test_demo_reports_regenerate(name, norm, field, levels):
    rep = iso.verify(norm, field, levels, count=DEMO05.COUNT)
    rep.scenario_id = name
    got = json.loads(iso.dumps_17g(rep.to_json_dict()))
    want = json.loads((ROOT / "demos" / "out" / f"{name}.json").read_text())
    _assert_matches(got, want)


def test_cli_runs_without_scipy(tmp_path):
    # scipy serves only the tests and demos 02 and 05: with every scipy import
    # made to fail, each minkgeom module imports, a verify runs, an n = 5
    # alpha-beta verify reaches the n >= 4 direction sets and the jets, and
    # the subspace condition check runs
    script = (
        "import importlib, pkgutil, sys\n"
        "sys.modules['scipy'] = None\n"
        "import minkgeom\n"
        "for mod in pkgutil.iter_modules(minkgeom.__path__):\n"
        "    importlib.import_module('minkgeom.' + mod.name)\n"
        "from minkgeom import calculus, cli, isoparametric, norms, randers\n"
        "code = cli.main(['verify', 'demos/configs/randers_sphere.json', '--out', sys.argv[1]])\n"
        "assert code == 0, code\n"
        "ab = norms.AlphaBetaNorm(norms.PolynomialProfile([1.0, 1.0, 0.1]), 0.3, 5)\n"
        "rep = isoparametric.verify(ab, calculus.sphere_potential(ab), [0.5, 2.0, 4.5], count=8)\n"
        "assert (rep.transnormal_verdict, rep.isoparametric_verdict) == ('yes', 'yes'), rep\n"
        "assert randers.dual_subspace_condition_check(norms.KthRootNorm(4, 3), 2)\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert loaded == ['scipy'], loaded  # only the blocking entry\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)], cwd=ROOT,
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert not [d for d in project["dependencies"] if d.startswith("scipy")]
    assert [d for d in project["optional-dependencies"]["test"] if d.startswith("scipy")]
