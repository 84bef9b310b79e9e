"""Principal curvatures of the model hypersurfaces and Cartan curvature.

Hyperplanes, norm-spheres and subspace-dual cylinders are the flat-space
model hypersurfaces: their principal curvatures with respect to the forward
normal are 0, -1/r (+1/r for the reverse orientation) and the pair
{-1/r, 0}.  The induced sectional curvature reduces to products k_a k_b, and
the Cartan curvature Q satisfies 1 - Q = alpha (1 - b^2) for Randers norms,
which feeds the two-curvature relation and the Cartan-type formula.
"""

import numpy as np

from minkgeom import calculus, hypersurface as hs, isoparametric as iso, norms
from minkgeom import randers as rd

norm = norms.RandersNorm([0.5, 0.0, 0.0])

print("sphere F(x) = r, r = 2 (expect all curvatures -1/2):")
f = calculus.sphere_potential(norm)
x = 2.0 * np.array([0.3, -0.8, 0.5]) / norm.value([0.3, -0.8, 0.5])
fr = hs.frame_at(norm, f, x)
k = fr.principal_curvatures
print("  curvatures:", k)
print("  mean curvature:", k.sum(), " sectional product k_1 k_2:", k[0] * k[1])

print("\nreverse sphere F(-x) = 2 (expect +1/2):")
frev = calculus.sphere_potential(norm, reverse=True)
xr = 2.0 * np.array([0.3, -0.8, 0.5]) / norm.value([-0.3, 0.8, -0.5])
print("  curvatures:", hs.frame_at(norm, frev, xr).principal_curvatures)

print("\ncylinder of radius 1, b inside the subspace (expect {-1, 0}):")
inside = norms.RandersNorm([0.3, 0.0, 0.0])
field = calculus.cylinder_potential(inside, 2)  # level r^2/2 is the cylinder
frc = iso.sample_level(inside, field, 0.5, 8).frames[0]
print("  curvatures:", frc.principal_curvatures, " groups:", frc.groups)
print("  Cartan-type formula residual:", hs.cartan_formula_residual(frc))
print("  two-curvature relation residuals:",
      np.abs(hs.two_curvature_residuals(inside, frc)))

print("\nCartan curvature identity 1 - Q = alpha (1 - b^2):")
rng = np.random.default_rng(7)
for b in (0.1, 0.5, 0.9):
    nb = norms.RandersNorm([b, 0.0, 0.0])
    worst = 0.0
    for _ in range(25):
        y, X, Y = hs.gram_orthogonal_triple(nb, rng)
        lhs, rhs = rd.lemma61_check(nb, y, X, Y)
        worst = max(worst, abs(lhs - rhs))
    print(f"  b = {b:.1f}: worst |lhs - rhs| = {worst:.2e}")
