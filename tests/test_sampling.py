"""Direction sets: the same arrays from the cached Kronecker generators, and
no ``statistics`` import until a direction set of n >= 4 needs it."""

import math
import os
import subprocess
import sys
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest

from minkgeom import sampling


def kronecker_directions(n, count, seed):
    """The n >= 4 direction set written out: generators from the root of
    x^(n+1) = x + 1, the Gaussian quantile and the normalization."""
    x = 1.5
    for _ in range(80):
        x = (1.0 + x) ** (1.0 / (n + 1))
    alphas = np.mod(1.0 / x ** np.arange(1, n + 1), 1.0)
    shift = math.modf(0.5 + seed * sampling.GOLDEN)[0]
    u = np.clip(np.mod(shift + np.arange(1, count + 1)[:, None] * alphas[None, :], 1.0),
                1e-12, 1.0 - 1e-12)
    g = np.vectorize(NormalDist().inv_cdf, otypes=[float])(u)
    norms = np.linalg.norm(g, axis=1)
    norms[norms == 0.0] = 1.0
    return g / norms[:, None]


@pytest.mark.parametrize("n", [4, 5, 6, 9])
def test_kronecker_directions_keep_their_bits(n):
    sampling._kronecker_alphas.cache_clear()
    for seed in (0, 1, 7):
        for count in (1, 8, 64):
            want = kronecker_directions(n, count, seed).tobytes()
            assert sampling.sphere_directions(n, count, seed).tobytes() == want
    assert not sampling._kronecker_alphas(n).flags.writeable


def test_import_does_not_load_statistics():
    script = ("import sys, minkgeom, minkgeom.cli\n"
              "minkgeom.sampling.sphere_directions(3, 8)\n"
              "assert 'statistics' not in sys.modules\n"
              "minkgeom.sampling.sphere_directions(4, 8)\n"
              "assert 'statistics' in sys.modules\n")
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run([sys.executable, "-c", script], cwd=root, capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
