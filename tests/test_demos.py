"""The narrative demos run to completion.

Demo 05 writes the golden reports; ``test_golden.py`` regenerates them
without running its ``main``, which would rewrite ``demos/out``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["01_norm_tensors", "02_legendre_duality",
                                  "03_gradient_laplacian", "04_curvature_models",
                                  "06_transnormal_counterexample"])
def test_demo_runs(demo):
    if demo == "02_legendre_duality":
        # its sup oracles, from tests/oracles.py, need scipy from the test extra
        pytest.importorskip("scipy")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{demo}.py")], cwd=ROOT,
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
