"""Nonlinear gradient, Hessian form, Laplacian pipelines, volume constants.

The catalog potentials have known model values: the half-squared-norm
potential has gradient x and Laplacian n; its cylinder analogue has
Laplacian m; linear functions are harmonic.  The Laplacian is evaluated
through three numerically distinct pipelines (dual tensor at df, inverse
metric at grad f, orthonormal-frame trace) plus a finite-difference
divergence oracle, and the volume constants are compared against their
Randers closed forms.
"""

import numpy as np

from minkgeom import calculus, norms

norm = norms.RandersNorm([0.5, 0.0, 0.0])
x = np.array([0.3, -1.1, 0.7])

fields = [
    ("linear c.x", calculus.linear_field([1.0, 2.0, 0.5]), 0.0),
    ("F^2/2 (sphere)", calculus.sphere_potential(norm), 3.0),
    ("-F^2(-x)/2 (reverse)", calculus.sphere_potential(norm, reverse=True), -3.0),
    ("Ftilde^2/2 (cylinder m=2)", calculus.cylinder_potential(norm, 2), 2.0),
]

print(f"{'field':<28}{'dual':>12}{'primal':>12}{'frame':>12}{'fd-div':>12}{'model':>8}")
for label, f, model in fields:
    vals = [calculus.laplacian(norm, f, x, method=m) for m in ("dual", "primal", "frame_trace")]
    fd = calculus.divergence_fd(norm, f, x)
    print(f"{label:<28}{vals[0]:>12.8f}{vals[1]:>12.8f}{vals[2]:>12.8f}{fd:>12.8f}{model:>8}")

f = calculus.sphere_potential(norm)
print("\ngradient of the sphere potential is the position vector:")
print("  grad f(x) =", calculus.gradient(norm, f, x), " x =", x)

print("\nHessian form symmetry at a generic point (D2f = f's coordinate Hessian):")
X, Y = np.array([1.0, 0.2, -0.5]), np.array([-0.3, 0.8, 0.1])
print("  D2f(X,Y) =", X @ f.d2(x) @ Y)
print("  D2f(Y,X) =", Y @ f.d2(x) @ X)

print("\nvolume constants (BH and HT densities):")
for n_, label, bh_expect in (
    (norms.EuclideanNorm(3), "euclidean n=3", 1.0),
    (norms.RandersNorm([0.5, 0.0]), "randers n=2 b=0.5", 0.75**1.5),
    (norm, "randers n=3 b=0.5", 0.75**2),
):
    vc = calculus.volume_constants(n_, count=50000)
    print(f"  {label:<20} sigma_BH = {vc.sigma_bh:.6f} (model {bh_expect:.6f}), "
          f"sigma_HT = {vc.sigma_ht:.6f} (model 1)")
