import numpy as np
import pytest

from minkgeom import calculus, hypersurface as hs, norms
from minkgeom.errors import NotOrthogonal

from .oracles import mean_curvature_residual


def sphere_point(norm, r, direction):
    d = np.asarray(direction, dtype=float)
    return r * d / norm.value(d)


class TestFrame:
    def test_hyperplane_flat(self, randers3, rng):
        f = calculus.linear_field([1.0, 2.0, 0.5])
        fr = hs.frame_at(randers3, f, rng.standard_normal(3))
        assert np.max(np.abs(fr.principal_curvatures)) <= 1e-10
        assert len(fr.groups) == 1

    def test_sphere_constant_negative_curvature(self, randers3):
        f = calculus.sphere_potential(randers3)
        x = sphere_point(randers3, 2.0, [0.3, -0.8, 0.5])
        fr = hs.frame_at(randers3, f, x)
        assert np.allclose(fr.principal_curvatures, -0.5, atol=1e-10)
        assert fr.groups == ((pytest.approx(-0.5, abs=1e-10), 2),)

    def test_reverse_sphere_positive_curvature(self, randers3):
        f = calculus.sphere_potential(randers3, reverse=True)
        d = np.array([0.3, -0.8, 0.5])
        x = 2.0 * d / randers3.value(-d)  # F(-x) = 2
        fr = hs.frame_at(randers3, f, x)
        assert np.allclose(fr.principal_curvatures, 0.5, atol=1e-10)

    def test_cylinder_two_groups(self):
        norm = norms.RandersNorm([0.3, 0.0, 0.0])
        f = calculus.cylinder_potential(norm, 2)
        tilde = f.meta["tilde"]
        dbar = np.array([0.6, -0.4])
        xbar = dbar / tilde.value(dbar)
        fr = hs.frame_at(norm, f, np.array([xbar[0], xbar[1], 0.7]))
        assert np.allclose(sorted(fr.principal_curvatures), [-1.0, 0.0], atol=1e-10)
        assert len(fr.groups) == 2

    def test_normal_orthogonality(self, randers3, rng):
        f = calculus.sphere_potential(randers3)
        x = sphere_point(randers3, 1.5, rng.standard_normal(3))
        fr = hs.frame_at(randers3, f, x)
        g = randers3.fundamental_tensor(fr.normal)
        assert float(fr.normal @ g @ fr.normal) == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(fr.tangent_basis @ g @ fr.normal)) <= 1e-10
        assert np.max(np.abs(fr.tangent_basis @ g @ fr.tangent_basis.T - np.eye(2))) <= 1e-10

    def test_basis_seed_invariance(self, randers3_mixed, rng):
        f = calculus.norm_plus_linear(randers3_mixed, 2)
        x = np.array([1.0, 0.4, 0.6])
        k0 = hs.frame_at(randers3_mixed, f, x, basis_seed=0).principal_curvatures
        k1 = hs.frame_at(randers3_mixed, f, x, basis_seed=1).principal_curvatures
        assert np.max(np.abs(k0 - k1)) <= 1e-9

    def test_umbilic_grouping_counts(self, randers3):
        # spheres and hyperplanes: one group; cylinders: exactly two
        fs = calculus.sphere_potential(randers3)
        x = sphere_point(randers3, 1.0, [0.2, 0.9, -0.4])
        assert len(hs.frame_at(randers3, fs, x).groups) == 1
        fl = calculus.linear_field([1.0, 0.3, 0.2])
        assert len(hs.frame_at(randers3, fl, [1.0, 1.0, 1.0]).groups) == 1
        fc = calculus.cylinder_potential(randers3, 2)
        assert len(hs.frame_at(randers3, fc, [0.7, 0.4, 0.5]).groups) == 2

    def test_quartic_cylinder_reduced_frame(self, quartic3):
        f = calculus.cylinder_potential(quartic3, 2)
        fr = hs.frame_at(quartic3, f, np.array([0.9, -0.6, 0.8]))
        assert len(fr.groups) == 2
        assert fr.groups[1][0] == pytest.approx(0.0, abs=1e-12)


class TestMeanCurvature:
    def test_sphere_value(self, randers3):
        f = calculus.sphere_potential(randers3)
        fr = hs.frame_at(randers3, f, sphere_point(randers3, 2.0, [0.5, 0.1, -0.7]))
        hhat, h = hs.mean_curvatures(fr)
        assert hhat == pytest.approx(-1.0, abs=1e-10)
        assert h == hhat  # S-curvature vanishes: both notions coincide

    def test_hyperplane_and_cylinder(self, randers3):
        fl = calculus.linear_field([1.0, 0.3, 0.2])
        fr = hs.frame_at(randers3, fl, [0.3, 0.4, 0.5])
        assert hs.mean_curvatures(fr)[0] == pytest.approx(0.0, abs=1e-10)
        norm = norms.RandersNorm([0.3, 0.0, 0.0])
        fc = calculus.cylinder_potential(norm, 2)
        tilde = fc.meta["tilde"]
        xbar = np.array([0.6, -0.4]) / tilde.value([0.6, -0.4])
        frc = hs.frame_at(norm, fc, np.array([xbar[0], xbar[1], 0.2]))
        assert hs.mean_curvatures(frc)[0] == pytest.approx(-1.0, abs=1e-10)

    def test_trace_identity_residual(self, randers3_mixed):
        f = calculus.norm_plus_linear(randers3_mixed, 2)
        fr = hs.frame_at(randers3_mixed, f, np.array([1.0, 0.4, 0.6]))
        assert mean_curvature_residual(fr) <= 1e-8


class TestCartanCurvature:
    def test_euclidean_vanishes(self, euclid3, rng):
        y, X, Y = hs.gram_orthogonal_triple(euclid3, rng)
        assert hs.cartan_curvature_Q(euclid3, y, X, Y) == pytest.approx(0.0, abs=1e-14)

    def test_scale_invariance(self, randers3, rng):
        y, X, Y = hs.gram_orthogonal_triple(randers3, rng)
        q = hs.cartan_curvature_Q(randers3, y, X, Y)
        assert hs.cartan_curvature_Q(randers3, y, 3.0 * X, Y) == pytest.approx(q, abs=1e-10)
        assert hs.cartan_curvature_Q(randers3, y, X, 3.0 * Y) == pytest.approx(q, abs=1e-10)

    def test_randers_identity(self, rng):
        # 1 - Q = alpha (1 - b^2) across the b range
        for b in (0.1, 0.5, 0.9):
            norm = norms.RandersNorm([b, 0.0, 0.0])
            for _ in range(10):
                y, X, Y = hs.gram_orthogonal_triple(norm, rng)
                lhs = 1.0 - hs.cartan_curvature_Q(norm, y, X, Y)
                rhs = float(np.linalg.norm(y)) * (1.0 - b * b)
                assert abs(lhs - rhs) <= 1e-7
                assert lhs > 0.0

    def test_orthogonality_enforced(self, randers3, rng):
        y = rng.standard_normal(3)
        with pytest.raises(NotOrthogonal):
            hs.cartan_curvature_Q(randers3, y, y + 0.1 * rng.standard_normal(3),
                                  rng.standard_normal(3))


class TestSectionalAndFormulas:
    def test_sphere_products(self, randers3):
        f = calculus.sphere_potential(randers3)
        fr = hs.frame_at(randers3, f, sphere_point(randers3, 2.0, [0.4, 0.6, -0.2]))
        K = hs.sectional_products(fr)
        assert K[0, 1] == pytest.approx(0.25, abs=1e-10)
        assert K[0, 0] == 0.0

    def test_hyperplane_products_vanish(self, randers3):
        f = calculus.linear_field([1.0, 0.3, 0.2])
        fr = hs.frame_at(randers3, f, [0.3, 0.4, 0.5])
        assert np.max(np.abs(hs.sectional_products(fr))) <= 1e-20

    def test_cylinder_products_vanish(self):
        norm = norms.RandersNorm([0.3, 0.0, 0.0])
        f = calculus.cylinder_potential(norm, 2)
        fr = hs.frame_at(norm, f, [0.7, 0.4, 0.5])
        assert np.max(np.abs(hs.sectional_products(fr))) <= 1e-10

    def test_cartan_type_formula(self, randers3):
        # one kappa vanishes for the two-group model families, forcing zero
        norm = norms.RandersNorm([0.3, 0.0, 0.0])
        f = calculus.cylinder_potential(norm, 2)
        fr = hs.frame_at(norm, f, [0.7, 0.4, 0.5])
        assert hs.cartan_formula_residual(fr) <= 1e-8
        fs = calculus.sphere_potential(randers3)
        frs = hs.frame_at(randers3, fs, sphere_point(randers3, 1.0, [0.4, 0.6, -0.2]))
        assert hs.cartan_formula_residual(frs) == 0.0

    def test_two_curvature_relation(self):
        norm = norms.RandersNorm([0.3, 0.0, 0.0])
        f = calculus.cylinder_potential(norm, 2)
        fr = hs.frame_at(norm, f, [0.7, 0.4, 0.5])
        residuals = hs.two_curvature_residuals(norm, fr)
        assert residuals.size == 1
        assert np.max(np.abs(residuals)) <= 1e-8
