import dataclasses

import numpy as np
import pytest

from minkgeom import _linalg, calculus, hypersurface as hs, norms
from minkgeom.errors import EigenFailure, NotOrthogonal

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

    def test_trace_gate_is_relative_at_every_scale(self, randers3):
        # curvatures doubled off the trace of hhat fail the gate at every
        # level, also at t = 1e16, where kappa is about 7e-9
        f = calculus.sphere_potential(randers3)
        for t in (1.0, 1e16):
            x = sphere_point(randers3, np.sqrt(2.0 * t), [0.5, 0.1, -0.7])
            fr = hs.frame_at(randers3, f, x)
            assert hs.mean_curvatures(fr)[0] == pytest.approx(-2.0 / np.sqrt(2.0 * t), rel=1e-10)
            doubled = dataclasses.replace(fr, principal_curvatures=2.0 * fr.principal_curvatures)
            with pytest.raises(EigenFailure):
                hs.mean_curvatures(doubled)

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

    def test_randers_identity(self):
        # Lemma 6.1: 1 - Q = alpha(y / F(y)) (1 - |b|^2) to 1e-11 relative, for
        # |b| up to 0.99 in random directions, n up to 10 and |y| from 1e-100
        # to 1e100
        for n in (3, 4, 6, 10):
            rng = np.random.default_rng(610 + n)
            for size in (0.1, 0.5, 0.9, 0.99):
                b = rng.standard_normal(n)
                norm = norms.RandersNorm(size * b / np.linalg.norm(b))
                for e in rng.uniform(-100.0, 100.0, 10):
                    y, X, Y = hs.gram_orthogonal_triple(norm, rng)
                    y = 10.0**e * y
                    lhs = 1.0 - hs.cartan_curvature_Q(norm, y, X, Y)
                    rhs = float(np.linalg.norm(y)) / norm.value(y) * norm.lam
                    assert abs(lhs - rhs) <= 1e-11 * rhs, (n, size, e)
                    assert lhs > 0.0

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_Q_is_its_frame_form(self, n):
        # Q = (2F^2 / (g(X,X) g(Y,Y))) (2 sum_i C(X,X,e_i) C(Y,Y,e_i) - Ccal(X,X,Y,Y))
        # over an explicit g_y-orthonormal frame e_i, with C = d3/2 and
        # Ccal = d4/2 from the taylor tensors, to 1e-10 relative
        rng = np.random.default_rng(700 + n)
        b = rng.standard_normal(n)
        profile = norms.PolynomialProfile([1.0, 1.0, 0.1])
        families = (lambda s: norms.RandersNorm(0.6 * b / np.linalg.norm(b), strategy=s),
                    lambda s: norms.KthRootNorm(4, n, strategy=s),
                    lambda s: norms.KthRootNorm(6, n, strategy=s),
                    # no closed forms: its own tensors are the taylor ones
                    lambda s: norms.AlphaBetaNorm(profile, 0.3, n))
        for make in families:
            norm, oracle = make("analytic"), make("taylor")
            for _ in range(5):
                y, X, Y = hs.gram_orthogonal_triple(norm, rng)
                d = oracle.derivatives(y, order=4)
                C, Ccal, g = 0.5 * d.d3, 0.5 * d.d4, d.d2
                e = _linalg.orthonormal_basis(g)
                cX = np.einsum("ijk,i,j,ak->a", C, X, X, e)
                cY = np.einsum("ijk,i,j,ak->a", C, Y, Y, e)
                quad = np.einsum("ijkl,i,j,k,l->", Ccal, X, X, Y, Y)
                want = 2.0 * d.F**2 / ((X @ g @ X) * (Y @ g @ Y)) * (2.0 * cX @ cY - quad)
                got = hs.cartan_curvature_Q(norm, y, X, Y)
                assert abs(got - want) <= 1e-10 * abs(want), (norm, got, want)

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
