"""Golden reports: the committed ``demos/out`` reports regenerate.

The verify runs are those of ``demos/05_isoparametric_verification.py``; the
CLI reports under ``demos/out/cli`` are every ``demos/configs`` scenario
through the commands it serves.  Verdicts and strings must match exactly,
numbers to 1e-12 max(1, |v|).
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from minkgeom import cli, isoparametric as iso

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_REL = 1e-12
# central differences turn last-bit moves of the sampled points into moves
# near 1e-8 of the fd derivatives; 1e-6 is still 100x below fd's verify
# tolerance of 1e-4
FD_GOLDEN_REL = 1e-6


def _demo05():
    path = ROOT / "demos" / "05_isoparametric_verification.py"
    spec = importlib.util.spec_from_file_location("demo05", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


DEMO05 = _demo05()


def _assert_matches(got, want, path="$", rel=GOLDEN_REL):
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), path
        for key in want:
            _assert_matches(got[key], want[key], f"{path}.{key}", rel)
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_matches(g, w, f"{path}[{i}]", rel)
    elif isinstance(want, (bool, str)) or want is None:
        assert got == want and type(got) is type(want), path
    else:
        assert abs(got - want) <= rel * max(1.0, abs(want)), (path, got, want)


@pytest.mark.parametrize("name,norm,field,levels", DEMO05.runs, ids=[r[0] for r in DEMO05.runs])
def test_demo_reports_regenerate(name, norm, field, levels):
    rep = iso.verify(norm, field, levels, count=DEMO05.COUNT)
    rep.scenario_id = name
    got = json.loads(iso.dumps_17g(rep.to_json_dict()))
    want = json.loads((ROOT / "demos" / "out" / f"{name}.json").read_text())
    _assert_matches(got, want)


CLI_GOLDENS = sorted((ROOT / "demos" / "out" / "cli").glob("*.json"))


@pytest.mark.parametrize("golden", CLI_GOLDENS, ids=[p.stem for p in CLI_GOLDENS])
def test_cli_reports_regenerate(golden, tmp_path):
    # golden name: <command>-<config stem>.json; the command writes one JSON report
    command, config = golden.stem.split("-", 1)
    path = ROOT / "demos" / "configs" / f"{config}.json"
    assert cli.main([command, str(path), "--out", str(tmp_path)]) == 0
    (report,) = tmp_path.glob("*.json")
    rel = FD_GOLDEN_REL if config.endswith("_fd") else GOLDEN_REL
    _assert_matches(json.loads(report.read_text()), json.loads(golden.read_text()), rel=rel)


def test_cli_goldens_cover_every_config():
    # verify and curvatures for each config with a field block, dualcheck otherwise
    want = []
    for path in sorted((ROOT / "demos" / "configs").glob("*.json")):
        commands = ("verify", "curvatures") if "field" in json.loads(path.read_text()) else ("dualcheck",)
        want += [f"{c}-{path.stem}" for c in commands]
    assert sorted(p.stem for p in CLI_GOLDENS) == sorted(want)


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
