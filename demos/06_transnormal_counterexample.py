"""A transnormal function that is not isoparametric.

For a Randers norm whose defining covector b has components both inside and
outside a coordinate subspace, the field f(x) = |xbar| + b.x has F*(df) = 1
identically (every level set is unit-speed parallel), yet its Laplacian
varies along each level set, so no profile b(t) can match it.  In Euclidean
geometry a transnormal function always admits an isoparametric
reparametrization; the spread table below shows how that fails here, and
the dual-coefficient witness pinpoints the broken equation.
"""

import numpy as np

from minkgeom import calculus, isoparametric as iso, norms
from minkgeom import randers as rd

norm = norms.RandersNorm([0.1, 0.0, 0.2])
field = calculus.norm_plus_linear(norm, 2)
rep = iso.verify(norm, field, [0.8, 1.0, 1.25], count=64)

print("verdicts: transnormal =", rep.transnormal_verdict,
      " isoparametric =", rep.isoparametric_verdict)
print(f"\n{'level':>8}{'F*(df) mean':>16}{'F*(df) spread':>16}{'lap mean':>12}{'lap spread':>12}")
for st in rep.level_stats:
    print(f"{st['level']:>8.3f}{st['fstar_mean']:>16.12f}{st['fstar_spread']:>16.2e}"
          f"{st['lap_mean']:>12.6f}{st['lap_spread']:>12.4f}")

print("\ndual-coefficient witness (Euclidean-quantity system):")
print("  first equation  (transnormality) residual:", rep.witness["r1_max"])
print("  second equation (Laplacian)      residual:", rep.witness["r2_max"])

# probing the best isoparametric candidate profile b(t) = q/(t + c) with
# q = m - 1 and c = 0: the residual concentrates where beta(x) != beta(xbar)
rng = np.random.default_rng(0)
print("\npointwise residuals of the candidate system:")
print(f"{'|beta(x) - beta(xbar)|':>24}{'r2':>14}")
rows = []
for _ in range(200):
    x = rng.standard_normal(3) * 1.5
    if np.linalg.norm(x[:2]) < 0.3 or field.value(x) < 0.3:
        continue
    t = field.value(x)
    _, r2 = rd.randers_isoparametric_residual(norm, field.d1(x), field.d2(x), 1.0, 1.0 / t, 0.0)
    gap = abs(float(norm.b @ x) - float(norm.b[:2] @ x[:2]))
    rows.append((gap, abs(r2)))
rows.sort()
for gap, r2 in rows[:3] + rows[-3:]:
    print(f"{gap:>24.6f}{r2:>14.6f}")

print("\nby contrast, the same construction with b inside the subspace is isoparametric:")
inside = norms.RandersNorm([0.3, 0.0, 0.0])
rep_in = iso.verify(inside, calculus.norm_plus_linear(inside, 2), [0.8, 1.0, 1.25], count=32)
print("  verdicts:", rep_in.transnormal_verdict, rep_in.isoparametric_verdict)
