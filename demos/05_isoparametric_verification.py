"""Transnormal / isoparametric verification of the model families.

Verifies the catalog potentials level by level: constancy of F*(df) and of
the Laplacian on each level set, constancy of the principal curvatures,
the structural identities linking the fitted profiles to the curvatures,
and the unit-speed gradient-flow segments between levels (straight lines
whose length matches the profile quadrature).  Reports land in demos/out/.
"""

import os

import numpy as np
from scipy.integrate import quad

from minkgeom import calculus, isoparametric as iso, norms

OUT = os.path.join(os.path.dirname(__file__), "out")
COUNT = 32

norm = norms.RandersNorm([0.5, 0.0, 0.0])
quartic = norms.KthRootNorm(4, 3)

# (report name, norm, field, levels); tests/test_golden.py regenerates these
runs = [
    ("randers-sphere", norm, calculus.sphere_potential(norm), [0.5, 2.0, 4.5]),
    ("randers-reverse-sphere", norm, calculus.sphere_potential(norm, reverse=True),
     [-4.5, -2.0, -0.5]),
    ("randers-hyperplane", norm, calculus.linear_field([1.0, 2.0, 0.5]), [1.0, 2.0, 3.0]),
    ("randers-cylinder", norms.RandersNorm([0.3, 0.0, 0.0]),
     calculus.cylinder_potential(norms.RandersNorm([0.3, 0.0, 0.0]), 2), [0.125, 0.5, 1.125]),
    ("quartic-sphere", quartic, calculus.sphere_potential(quartic), [0.5, 2.0, 4.5]),
    ("quartic-cylinder", quartic, calculus.cylinder_potential(quartic, 2), [0.5, 2.0, 4.5]),
]


def main():
    os.makedirs(OUT, exist_ok=True)
    for name, n_, f, levels in runs:
        rep = iso.verify(n_, f, levels, count=COUNT)
        rep.scenario_id = name
        rep.write_json(os.path.join(OUT, f"{name}.json"))
        rep.write_csv(os.path.join(OUT, f"{name}.csv"))
        print(f"{name:<24} transnormal={rep.transnormal_verdict:<4} "
              f"isoparametric={rep.isoparametric_verdict:<4} groups={rep.group_structure}")
        print(f"{'':<24} a(t) nodes: {np.round(rep.a_nodes[:, 1], 10)}"
              f"   b(t) nodes: {np.round(rep.b_nodes[:, 1], 10)}")

    print("\nstructural identities on the sphere family:")
    rep = iso.verify(norm, calculus.sphere_potential(norm), [0.5, 2.0, 4.5], count=COUNT)
    table = iso.consistency_identities(rep)
    print("  max |sum k - (a' - b/a)|  =", table["max_sum_k_vs_profile"])
    print("  max |dk/drho - k^2|       =", table["max_riccati"])
    print("  max |sum k^2 - q/a^2|     =", table["max_model_sum_sq"])

    print("\nf-segment between levels 0.5 and 2.0 (radius 1 -> 2):")
    f = calculus.sphere_potential(norm)
    x0 = iso.sample_level(norm, f, 0.5, 8).points[0]
    flow = iso.f_segment_flow(norm, f, x0, 0.5, 2.0)
    integral, _ = quad(lambda t: 1.0 / float(iso.sample_level(norm, f, t, 8).fstar.mean()),
                       0.5, 2.0)
    print("  arclength          =", flow.arclength)
    print("  integral dt / a(t) =", integral)
    print("  chord deviation    =", flow.chord_deviation)


if __name__ == "__main__":
    main()
