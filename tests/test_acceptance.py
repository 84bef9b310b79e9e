"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one line per
criterion.  Every expected value is either trivial, derived from an
independent oracle in the module tests, or a closed-form model value.
"""

import dataclasses
import time

import numpy as np
import pytest
from scipy.integrate import quad

from minkgeom import calculus, duality, hypersurface as hs, isoparametric as iso, norms
from minkgeom import randers as rd


def _report(cid, text):
    print(f"ACCEPTANCE {cid}: PASS - {text}")


def test_c01_sphere_curvatures():
    norm = norms.RandersNorm([0.5, 0.0, 0.0])
    field = calculus.sphere_potential(norm)
    levels = [0.5, 2.0, 4.5]
    start = time.perf_counter()
    rep = iso.verify(norm, field, levels, count=64)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s budget"
    for sample in rep.samples:
        r = np.sqrt(2.0 * sample.t)
        assert np.max(np.abs(sample.curvatures + 1.0 / r)) <= 1e-8
    assert rep.isoparametric
    _report("01", f"sphere curvatures -1/r at r in (1,2,3); runtime {elapsed:.2f}s")


def test_c02_reverse_sphere():
    norm = norms.RandersNorm([0.5, 0.0, 0.0])
    field = calculus.sphere_potential(norm, reverse=True)
    levels = [-0.5, -2.0, -4.5]
    rep = iso.verify(norm, field, levels, count=64)
    for sample in rep.samples:
        r = np.sqrt(-2.0 * sample.t)
        assert np.max(np.abs(sample.curvatures - 1.0 / r)) <= 1e-8
    # non-reversibility: F(x) = r and F(-x) = r are distinct point sets
    r = 2.0
    forward = iso.sample_level(norm, calculus.sphere_potential(norm), 0.5 * r**2, 32)
    separation = max(abs(norm.value(-x) - r) for x in forward.points)
    assert separation > 0.1
    _report("02", f"reverse sphere curvatures +1/r; point sets differ by {separation:.2f}")


def test_c03_hyperplane():
    norm = norms.RandersNorm([0.5, 0.0, 0.0])
    field = calculus.linear_field([1.0, 2.0, 0.5])
    rep = iso.verify(norm, field, [1.0, 2.0, 3.0], count=64)
    for sample in rep.samples:
        assert np.max(np.abs(sample.curvatures)) <= 1e-10
        assert np.max(np.abs(sample.lap)) <= 1e-10
    assert rep.isoparametric
    _report("03", "hyperplane: zero curvatures, zero Laplacian, isoparametric")


def test_c04_cylinders():
    # (a) curvature multiset {-1, 0} for b inside the subspace, r = 1
    norm_in = norms.RandersNorm([0.3, 0.0, 0.0])
    field_in = calculus.cylinder_potential(norm_in, 2)
    sample = iso.sample_level(norm_in, field_in, 0.5, 64)
    for ks in sample.curvatures:
        assert np.max(np.abs(np.sort(ks) - np.array([-1.0, 0.0]))) <= 1e-8

    # (b) b orthogonal to the subspace: the Ftilde-cylinder verifies
    # isoparametric with the cylinder-model profiles (a, b) = (sqrt(2t), m) ...
    norm_perp = norms.RandersNorm([0.0, 0.0, 0.3])
    tilde_field = calculus.cylinder_potential(norm_perp, 2)
    rep = iso.verify(norm_perp, tilde_field, [0.125, 0.5, 1.125], count=64)
    assert rep.isoparametric
    model_dev_tilde = max(abs(st["lap_mean"] - 2.0) for st in rep.level_stats)
    assert model_dev_tilde <= 1e-8

    # ... while the naive F-restriction cylinder potential misses the model
    # system: Delta f != m by the lambda scaling (Remark 5.4 distinction --
    # Ftilde is a strict shrink of the restriction here).
    fbar = norm_perp.restricted(2)
    naive = dataclasses.replace(calculus.custom_field(
        3,
        lambda x: 0.5 * fbar.value(x[:2]) ** 2,
        lambda x: np.concatenate([fbar.legendre(x[:2]), [0.0]]),
        lambda x: np.pad(fbar.derivatives(x[:2], order=2).d2, ((0, 1), (0, 1))),
    ), regular_range=(0.0, np.inf))
    rep_naive = iso.verify(norm_perp, naive, [0.125, 0.5, 1.125], count=64)
    model_dev_naive = max(abs(st["lap_mean"] - 2.0) for st in rep_naive.level_stats)
    assert model_dev_naive > 1e-3
    gap = norm_perp.value([1.0, 0.0, 0.0]) - duality.subspace_dual(norm_perp, 2).value([1.0, 0.0])
    assert gap > 1e-3
    _report("04", "cylinder multiset {-1,0}; Ftilde-cylinder fits the model "
                  f"(dev {model_dev_tilde:.1e}), naive restriction misses it "
                  f"(dev {model_dev_naive:.2f}), Ftilde < F gap {gap:.3f}")


def test_c05_example4_counterexample():
    norm = norms.RandersNorm([0.1, 0.0, 0.2])
    field = calculus.norm_plus_linear(norm, 2)
    rep = iso.verify(norm, field, [0.8, 1.0, 1.25], count=64)
    assert rep.transnormal
    for st in rep.level_stats:
        assert st["fstar_spread"] <= 1e-8
        assert abs(st["fstar_mean"] - 1.0) <= 1e-10
    assert not rep.isoparametric
    worst = min(st["lap_spread"] for st in rep.level_stats)
    assert worst >= 1e-2
    _report("05", f"transnormal with a == 1, not isoparametric (lap spread >= {worst:.3f})")


def test_c06_kth_root_sphere():
    levels = [0.5, 2.0, 4.5]
    analytic = norms.KthRootNorm(4, 3)
    rep = iso.verify(analytic, calculus.sphere_potential(analytic), levels, count=64)
    assert rep.isoparametric
    for st in rep.level_stats:
        assert st["fstar_spread"] <= 1e-6
        assert st["lap_spread"] <= 1e-6
        assert max(st["curvature_spread"]) <= 1e-6
    fd = norms.KthRootNorm(4, 3, strategy="fd")
    rep_fd = iso.verify(fd, calculus.sphere_potential(fd), levels, count=64)
    assert rep_fd.isoparametric
    for st in rep_fd.level_stats:
        assert st["fstar_spread"] <= 1e-4
        assert st["lap_spread"] <= 1e-4
        assert max(st["curvature_spread"]) <= 1e-4
    _report("06", "quartic-root sphere isoparametric (analytic 1e-6, fd 1e-4)")


def test_c07_lemma61_identity(rng):
    worst = 0.0
    for b in (0.1, 0.5, 0.9, 0.99):
        for n in (3, 4, 6, 10):
            direction = rng.standard_normal(n)
            norm = norms.RandersNorm(b * direction / np.linalg.norm(direction))
            for e in rng.uniform(-100.0, 100.0, 10):
                y, X, Y = hs.gram_orthogonal_triple(norm, rng)
                lhs, rhs = rd.lemma61_check(norm, y, X, Y)
                scaled = 1.0 - hs.cartan_curvature_Q(norm, 10.0**e * y, X, Y)
                worst = max(worst, abs(lhs - rhs) / rhs, abs(scaled - rhs) / rhs)
    assert worst <= 1e-11
    _report("07", f"1 - Q = alpha(1 - b^2) to {worst:.1e} relative over 160 triples")


def test_c08_duality_suite(family_zoo, rng):
    for norm in family_zoo:
        preserve = roundtrip = 0.0
        for _ in range(1000):
            y = rng.standard_normal(norm.dim)
            F = norm.value(y)
            xi = norm.legendre(y)
            preserve = max(preserve, abs(duality.dual_norm(norm, xi) - F) / F)
            y2 = duality.legendre_inverse(norm, xi)
            roundtrip = max(roundtrip, float(np.linalg.norm(y2 - y)) / float(np.linalg.norm(y)))
        assert preserve <= 1e-10, norm.family
        assert roundtrip <= 1e-9, norm.family
    randers_norm = norms.RandersNorm([0.5, 0.0, 0.0])
    agree = 0.0
    xis = np.array([rng.standard_normal(3) for _ in range(1000)])
    for xi, y in zip(xis, duality.legendre_inverse_newton(randers_norm, xis)):
        analytic = duality.dual_norm(randers_norm, xi)
        agree = max(agree, abs(analytic - randers_norm.value(y)) / analytic)
    assert agree <= 1e-8
    _report("08", "duality suite: preservation 1e-10, round trip 1e-9, dual agreement 1e-8")


def test_c09_laplacian_equivalence():
    norm = norms.RandersNorm([0.5, 0.0, 0.0])
    mixed = norms.RandersNorm([0.1, 0.0, 0.2])
    cases = [
        (norm, calculus.linear_field([1.0, 2.0, 0.5]), np.array([0.4, -0.2, 0.9])),
        (norm, calculus.sphere_potential(norm), np.array([0.3, -1.1, 0.7])),
        (norm, calculus.sphere_potential(norm, reverse=True), np.array([0.3, -1.1, 0.7])),
        (norm, calculus.cylinder_potential(norm, 2), np.array([0.6, -0.4, 1.3])),
        (norm, calculus.cylinder_potential(norm, 2, reverse=True), np.array([0.6, -0.4, 1.3])),
        (mixed, calculus.norm_plus_linear(mixed, 2), np.array([1.0, 0.3, 0.5])),
    ]
    for n, f, x in cases:
        dual = calculus.laplacian(n, f, x, method="dual")
        primal = calculus.laplacian(n, f, x, method="primal")
        trace = calculus.laplacian(n, f, x, method="frame_trace")
        scale = 1.0 + abs(dual)
        assert abs(dual - primal) <= 1e-8 * scale
        assert abs(dual - trace) <= 1e-8 * scale
        assert abs(calculus.divergence_fd(n, f, x) - dual) <= 1e-4 * scale
    sphere = calculus.sphere_potential(norm)
    assert calculus.laplacian(norm, sphere, [0.7, -0.2, 0.4]) == pytest.approx(3.0, abs=1e-9)
    _report("09", "divergence, dual-trace and frame-trace Laplacians agree to 1e-8; "
                  "sphere value = n")


def test_c10_profile_identities_and_segments():
    norm = norms.RandersNorm([0.5, 0.0, 0.0])
    cyl_norm = norms.RandersNorm([0.3, 0.0, 0.0])
    runs = [
        (norm, calculus.sphere_potential(norm), [0.5, 2.0, 4.5], (0.5, 2.0)),
        (cyl_norm, calculus.cylinder_potential(cyl_norm, 2), [0.125, 0.5, 1.125], (0.125, 0.5)),
    ]
    for n, f, levels, (t1, t2) in runs:
        rep = iso.verify(n, f, levels, count=32)
        assert rep.isoparametric
        table = iso.consistency_identities(rep)
        assert table["max_sum_k_vs_profile"] <= 1e-6
        assert table["max_model_sum_sq"] <= 1e-6
        x0 = iso.sample_level(n, f, t1, 8).points[0]
        flow = iso.f_segment_flow(n, f, x0, t1, t2)
        integral, quad_err = quad(
            lambda t: 1.0 / float(iso.sample_level(n, f, t, 8).fstar.mean()), t1, t2,
            limit=100)
        assert quad_err < 1e-9
        assert abs(flow.arclength - integral) <= 1e-6
        assert flow.chord_deviation <= 1e-6
    _report("10", "sum k = a' - b/a to 1e-6; arclength = integral dt/a to 1e-6; "
                  "f-segments straight to 1e-6")
