"""Legendre transform, dual norms, and subspace duals.

The Legendre map L(y) = F F_y(y) identifies vectors with covectors without
being linear; its inverse defines the nonlinear gradient.  This script runs
round trips through L for each family, evaluates dual norms against the
sup-over-directions oracle, and builds subspace duals, including the case
where the subspace dual is strictly smaller than the plain restriction.
The sup oracles live beside the tests, in ``tests/oracles.py``.
"""

import importlib.util
from pathlib import Path

import numpy as np

from minkgeom import duality, norms

_spec = importlib.util.spec_from_file_location(
    "oracles", Path(__file__).resolve().parents[1] / "tests" / "oracles.py")
oracles = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracles)

rng = np.random.default_rng(1)

zoo = [
    norms.EuclideanNorm(3),
    norms.RandersNorm([0.5, 0.0, 0.0]),
    norms.KthRootNorm(4, 3),
    norms.AlphaBetaNorm(norms.PolynomialProfile([1.0, 1.0, 0.1]), 0.3, 3),
]

print("round trips L^-1(L(y)) = y and norm preservation F*(L(y)) = F(y):")
for norm in zoo:
    worst_rt = worst_np = 0.0
    for _ in range(200):
        y = rng.standard_normal(3)
        xi = norm.legendre(y)
        y2 = duality.legendre_inverse(norm, xi)
        worst_rt = max(worst_rt, np.linalg.norm(y2 - y) / np.linalg.norm(y))
        worst_np = max(worst_np, abs(duality.dual_norm(norm, xi) - norm.value(y)))
    print(f"  {norm.family:<12} round trip {worst_rt:.2e}   preservation {worst_np:.2e}")

randers = norms.RandersNorm([0.5, 0.0, 0.0])
xi = np.array([1.3, -0.2, 0.4])
print("\ndual norm paths for a Randers covector:")
print("  analytic      ", duality.dual_norm(randers, xi))
print("  newton        ", randers.value(duality.legendre_inverse_newton(randers, xi)))
print("  grid sup      ", oracles.dual_norm_grid_sup(randers, xi, count=4000))

# subspace duals: restriction vs dual-of-restricted-dual
inside = norms.RandersNorm([0.3, 0.0, 0.0])
perp = norms.RandersNorm([0.0, 0.0, 0.3])
for norm, label in ((inside, "b inside Vbar"), (perp, "b orthogonal to Vbar")):
    tilde = duality.subspace_dual(norm, 2)
    ybar = np.array([1.0, 0.0])
    f_embedded = norm.value(np.append(ybar, 0.0))
    print(f"\n{label}:")
    print(f"  Ftilde(ybar)      = {tilde.value(ybar):.10f}")
    print(f"  F(ybar embedded)  = {f_embedded:.10f}")
    print(f"  gap               = {f_embedded - tilde.value(ybar):.3e}")
    print(f"  sup oracle        = {oracles.subspace_dual_sup(norm, 2, ybar[None], 4000)[0]:.10f}")
