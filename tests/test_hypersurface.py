import numpy as np
import pytest
from scipy.linalg import eigh, null_space

from minkgeom import calculus, hypersurface as hs, isoparametric as iso, norms
from minkgeom.errors import NotOrthogonal

from .oracles import mean_curvature_residual, point_geometry


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

    def test_curvatures_are_the_pencil_on_any_complement_basis(self, randers3_mixed):
        # the principal curvatures are the generalized eigenvalues of
        # (-D^2 f / F*, g) on the g-orthogonal complement of the normal, with
        # g at grad f, so any basis of it gives them: here an SVD null-space
        # basis from the one-point oracle's g, D^2 f and F*
        f = calculus.norm_plus_linear(randers3_mixed, 2)
        for x in ([1.0, 0.4, 0.6], [-0.3, 0.9, 0.2], [0.5, -0.7, -1.1]):
            geo = point_geometry(randers3_mixed, f, x)
            B = null_space((geo.g @ geo.grad)[None, :]).T  # (n-1, n), any basis
            want = eigh(-B @ geo.hess @ B.T / geo.fstar, B @ geo.g @ B.T, eigvals_only=True)
            got = hs.frame_at(randers3_mixed, f, x).principal_curvatures
            assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want)), x

    def test_umbilic_grouping_counts(self, randers3):
        # spheres and hyperplanes: one group; cylinders: exactly two
        fs = calculus.sphere_potential(randers3)
        x = sphere_point(randers3, 1.0, [0.2, 0.9, -0.4])
        assert len(hs.frame_at(randers3, fs, x).groups) == 1
        fl = calculus.linear_field([1.0, 0.3, 0.2])
        assert len(hs.frame_at(randers3, fl, [1.0, 1.0, 1.0]).groups) == 1
        fc = calculus.cylinder_potential(randers3, 2)
        assert len(hs.frame_at(randers3, fc, [0.7, 0.4, 0.5]).groups) == 2

    @pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
    @pytest.mark.parametrize("case", ["sphere", "cylinder", "quartic-cylinder", "hyperplane",
                                      "counterexample"])
    def test_the_closed_form_curvatures_are_those_of_eigh(self, case, scale, randers3_mixed):
        # at n = 3 the curvatures of each 2 x 2 hhat are in closed form:
        # np.linalg.eigh's to a few ulp of hhat's size
        quartic, cyl = norms.KthRootNorm(4, 3), norms.RandersNorm([0.3, 0.0, 0.0])
        norm, field, t = {
            "sphere": (cyl, calculus.sphere_potential(cyl), 2.0),
            "cylinder": (cyl, calculus.cylinder_potential(cyl, 2), 2.0),
            "quartic-cylinder": (quartic, calculus.cylinder_potential(quartic, 2), 2.0),
            "hyperplane": (cyl, calculus.linear_field([1.0, 2.0, 0.5]), 2.0),
            "counterexample": (randers3_mixed, calculus.norm_plus_linear(randers3_mixed, 2), 1.0),
        }[case]
        fr = iso.sample_level(norm, field, scale * t, 32).frames
        vals = np.linalg.eigh(fr.hhat)[0]
        size = abs(fr.hhat).max(axis=(1, 2))
        assert np.all(abs(fr.principal_curvatures - vals) <= 4 * np.spacing(size)[:, None])

    def test_quartic_cylinder_reduced_frame(self, quartic3):
        f = calculus.cylinder_potential(quartic3, 2)
        fr = hs.frame_at(quartic3, f, np.array([0.9, -0.6, 0.8]))
        assert len(fr.groups) == 2
        assert fr.groups[1][0] == pytest.approx(0.0, abs=1e-12)


class TestMeanCurvature:
    """The mean curvature is the sum of the principal curvatures."""

    def test_sphere_value(self, randers3):
        # -2 / r on the sphere F = r, relative at every scale, also on the
        # level t = 1e16, where kappa is about 7e-9
        f = calculus.sphere_potential(randers3)
        for r in (2.0, np.sqrt(2e16)):
            fr = hs.frame_at(randers3, f, sphere_point(randers3, r, [0.5, 0.1, -0.7]))
            assert fr.principal_curvatures.sum() == pytest.approx(-2.0 / r, rel=1e-10)

    def test_hyperplane_and_cylinder(self, randers3):
        fl = calculus.linear_field([1.0, 0.3, 0.2])
        fr = hs.frame_at(randers3, fl, [0.3, 0.4, 0.5])
        assert fr.principal_curvatures.sum() == pytest.approx(0.0, abs=1e-10)
        norm = norms.RandersNorm([0.3, 0.0, 0.0])
        fc = calculus.cylinder_potential(norm, 2)
        tilde = fc.meta["tilde"]
        xbar = np.array([0.6, -0.4]) / tilde.value([0.6, -0.4])
        frc = hs.frame_at(norm, fc, np.array([xbar[0], xbar[1], 0.2]))
        assert frc.principal_curvatures.sum() == pytest.approx(-1.0, abs=1e-10)

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
                e = np.linalg.inv(np.linalg.cholesky(g))  # rows: e g e^T = I
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
    """The induced sectional curvatures are the products k_a k_b."""

    def test_sphere_products(self, randers3):
        f = calculus.sphere_potential(randers3)
        fr = hs.frame_at(randers3, f, sphere_point(randers3, 2.0, [0.4, 0.6, -0.2]))
        k = fr.principal_curvatures
        assert k[0] * k[1] == pytest.approx(0.25, abs=1e-10)

    def test_hyperplane_products_vanish(self, randers3):
        f = calculus.linear_field([1.0, 0.3, 0.2])
        fr = hs.frame_at(randers3, f, [0.3, 0.4, 0.5])
        assert np.max(np.abs(fr.principal_curvatures)) <= 1e-10

    def test_cylinder_products_vanish(self):
        norm = norms.RandersNorm([0.3, 0.0, 0.0])
        f = calculus.cylinder_potential(norm, 2)
        k = hs.frame_at(norm, f, [0.7, 0.4, 0.5]).principal_curvatures
        assert abs(k[0] * k[1]) <= 1e-10

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

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("family", ["randers", "quartic"])
    def test_two_curvature_residuals_where_they_do_not_vanish(self, family, n):
        # the level of f = 1/2 sum c_i x_i^2, c = 1..n, has n - 1 distinct
        # curvatures, so every pair is one residual k_a k_b (1 - Q) != 0 and
        # checks the principal directions (on the quartic norm: a Randers Q
        # does not depend on them); the reference takes them from the
        # generalized eigh of (-D^2 f / F*, g) on an SVD null-space basis of
        # the normal's g-complement, with g at grad f
        c = np.arange(1.0, n + 1)
        b = np.zeros(n)
        b[:2] = [0.3, -0.2]
        norm = norms.RandersNorm(b) if family == "randers" else norms.KthRootNorm(4, n)
        field = calculus.custom_field(n, lambda x: 0.5 * x.dot(c * x), lambda x: c * x,
                                      lambda x: np.diag(c))
        x = np.array([0.7, -0.4, 0.5, 0.3, -0.6])[:n]
        geo = point_geometry(norm, field, x)
        B = null_space((geo.g @ geo.grad)[None, :]).T  # (n-1, n), any basis
        k, V = eigh(-B @ geo.hess @ B.T / geo.fstar, B @ geo.g @ B.T)
        E, normal = V.T @ B, geo.grad / geo.fstar
        want = np.array([k[a] * k[b] * (1.0 - hs.cartan_curvature_Q(norm, normal, E[a], E[b]))
                         for a in range(n - 1) for b in range(a + 1, n - 1)])
        got = hs.two_curvature_residuals(norm, hs.frame_at(norm, field, x))
        assert got.shape == want.shape == ((n - 1) * (n - 2) // 2,)
        assert np.min(np.abs(want)) > 1e-3 * np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))
