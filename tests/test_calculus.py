import numpy as np
import pytest

from minkgeom import calculus, duality, norms
from minkgeom.errors import CriticalPoint, DimensionTooLarge

LAPLACIAN_METHODS = ("dual", "primal", "frame_trace")


def catalog_fields(randers3, randers3_mixed):
    yield randers3, calculus.linear_field([1.0, 2.0, 0.5]), np.array([0.4, -0.2, 0.9])
    yield randers3, calculus.sphere_potential(randers3), np.array([0.3, -1.1, 0.7])
    yield randers3, calculus.sphere_potential(randers3, reverse=True), np.array([0.3, -1.1, 0.7])
    yield randers3, calculus.cylinder_potential(randers3, 2), np.array([0.6, -0.4, 1.3])
    yield randers3, calculus.cylinder_potential(randers3, 2, reverse=True), np.array([0.6, -0.4, 1.3])
    yield randers3_mixed, calculus.norm_plus_linear(randers3_mixed, 2), np.array([1.0, 0.3, 0.5])


class TestGradient:
    def test_linear_field_constant_gradient(self, randers3):
        f = calculus.linear_field([1.0, 2.0, 0.5])
        g1 = calculus.gradient(randers3, f, [0.0, 0.0, 0.0])
        g2 = calculus.gradient(randers3, f, [3.0, -1.0, 2.0])
        assert np.allclose(g1, g2)
        assert np.allclose(randers3.legendre(g1), [1.0, 2.0, 0.5], atol=1e-12)

    def test_sphere_potential_gradient_is_position(self, randers3):
        f = calculus.sphere_potential(randers3)
        assert np.allclose(calculus.gradient(randers3, f, [1.0, 0.0, 0.0]), [1.0, 0.0, 0.0])
        x = np.array([0.2, 0.7, -0.4])
        assert np.allclose(calculus.gradient(randers3, f, x), x, atol=1e-12)

    def test_reverse_sphere_gradient(self, randers3):
        f = calculus.sphere_potential(randers3, reverse=True)
        x = np.array([0.2, 0.7, -0.4])
        assert np.allclose(calculus.gradient(randers3, f, x), -x, atol=1e-12)

    def test_gradient_norm_equals_dual_norm_of_df(self, randers3_mixed, rng):
        f = calculus.norm_plus_linear(randers3_mixed, 2)
        for _ in range(20):
            x = rng.standard_normal(3) * 1.5
            if np.linalg.norm(x[:2]) < 0.2:
                continue
            grad = calculus.gradient(randers3_mixed, f, x)
            fstar = duality.dual_norm(randers3_mixed, f.d1(x))
            assert randers3_mixed.value(grad) == pytest.approx(fstar, rel=1e-10)
            assert f.d1(x) @ grad == pytest.approx(fstar**2, rel=1e-10)

    def test_critical_point_rejected(self, euclid3):
        f_sq = calculus.custom_field(3, lambda x: float(x @ x),
                                     d1_fn=lambda x: 2.0 * x,
                                     d2_fn=lambda x: 2.0 * np.eye(3))
        with pytest.raises(CriticalPoint):
            calculus.gradient(euclid3, f_sq, np.zeros(3))


class TestHessianForm:
    def test_linear_field_vanishes(self, randers3, rng):
        f = calculus.linear_field([1.0, 2.0, 0.5])
        X, Y = rng.standard_normal(3), rng.standard_normal(3)
        assert calculus.hessian_form(randers3, f, rng.standard_normal(3), X, Y) == 0.0

    def test_euclidean_half_square_value(self):
        e2 = norms.EuclideanNorm(2)
        f = calculus.sphere_potential(e2)
        assert calculus.hessian_form(e2, f, [2.0, 0.0], [2.0, 0.0], [2.0, 0.0]) == pytest.approx(4.0)

    def test_symmetry(self, randers3_mixed, rng):
        f = calculus.norm_plus_linear(randers3_mixed, 2)
        for _ in range(10):
            x = rng.standard_normal(3) + np.array([2.0, 0, 0])
            X, Y = rng.standard_normal(3), rng.standard_normal(3)
            a = calculus.hessian_form(randers3_mixed, f, x, X, Y)
            b = calculus.hessian_form(randers3_mixed, f, x, Y, X)
            assert abs(a - b) <= 1e-9 * (1.0 + abs(a))

    def test_matches_differenced_gradient_field(self, randers3, rng):
        # independent check: D^2 f(X, Y) = g_{grad f}(X^j d_j grad f, Y)
        f = calculus.sphere_potential(randers3)
        x = np.array([0.5, -0.8, 1.1])
        X, Y = rng.standard_normal(3), rng.standard_normal(3)
        h = 1e-6
        dgrad = (calculus.gradient(randers3, f, x + h * X)
                 - calculus.gradient(randers3, f, x - h * X)) / (2 * h)
        g = randers3.fundamental_tensor(calculus.gradient(randers3, f, x))
        fd_val = float(dgrad @ g @ Y)
        assert calculus.hessian_form(randers3, f, x, X, Y) == pytest.approx(fd_val, abs=1e-5)


class TestLaplacian:
    def test_sphere_potential_is_dimension(self, randers3, rng):
        f = calculus.sphere_potential(randers3)
        for _ in range(5):
            x = rng.standard_normal(3)
            for m in LAPLACIAN_METHODS:
                assert calculus.laplacian(randers3, f, x, method=m) == pytest.approx(3.0, abs=1e-9)

    def test_reverse_sphere_is_minus_dimension(self, randers3):
        f = calculus.sphere_potential(randers3, reverse=True)
        assert calculus.laplacian(randers3, f, [0.3, -1.1, 0.7]) == pytest.approx(-3.0, abs=1e-9)

    def test_cylinder_potential_is_subspace_dimension(self, randers3):
        f = calculus.cylinder_potential(randers3, 2)
        assert calculus.laplacian(randers3, f, [0.6, -0.4, 1.3]) == pytest.approx(2.0, abs=1e-9)
        fr = calculus.cylinder_potential(randers3, 2, reverse=True)
        assert calculus.laplacian(randers3, fr, [0.6, -0.4, 1.3]) == pytest.approx(-2.0, abs=1e-9)

    def test_linear_field_harmonic(self, randers3):
        f = calculus.linear_field([1.0, 2.0, 0.5])
        assert calculus.laplacian(randers3, f, [0.1, 0.2, 0.3]) == pytest.approx(0.0, abs=1e-12)

    def test_three_pipelines_agree(self, randers3, randers3_mixed):
        for norm, f, x in catalog_fields(randers3, randers3_mixed):
            vals = [calculus.laplacian(norm, f, x, method=m) for m in LAPLACIAN_METHODS]
            scale = 1.0 + abs(vals[0])
            assert abs(vals[0] - vals[1]) <= 1e-8 * scale
            assert abs(vals[0] - vals[2]) <= 1e-8 * scale

    def test_divergence_fd_oracle(self, randers3, randers3_mixed):
        for norm, f, x in catalog_fields(randers3, randers3_mixed):
            lap = calculus.laplacian(norm, f, x)
            fd = calculus.divergence_fd(norm, f, x)
            assert abs(lap - fd) <= 1e-4 * (1.0 + abs(lap))

    def test_divergence_fd_holds_at_every_scale(self):
        # grad f is 0-homogeneous, so s Delta f(s x) = Delta f(x); the step
        # scales with |x|, so the oracle keeps its accuracy over 12 decades
        norm = norms.RandersNorm([0.1, 0.0, 0.2])
        f = calculus.norm_plus_linear(norm, 2)
        x = np.array([0.8, -0.5, 0.3])
        lap = calculus.laplacian(norm, f, x)
        for s in 10.0 ** np.arange(-6, 7):
            fd = s * calculus.divergence_fd(norm, f, s * x)
            assert abs(fd - lap) <= 1e-8 * abs(lap), s

    def test_trace_check_pair(self, randers3_mixed):
        f = calculus.norm_plus_linear(randers3_mixed, 2)
        x = [1.0, 0.3, 0.5]
        a = calculus.laplacian(randers3_mixed, f, x, method="dual")
        b = calculus.laplacian(randers3_mixed, f, x, method="frame_trace")
        assert a == pytest.approx(b, abs=1e-8)

    def test_singular_family_prefix_reduction(self, quartic3):
        # quartic cylinder potential: grad f sits on the singular plane
        f = calculus.cylinder_potential(quartic3, 2)
        x = np.array([0.7, -0.5, 1.1])
        for m in LAPLACIAN_METHODS:
            assert calculus.laplacian(quartic3, f, x, method=m) == pytest.approx(2.0, abs=1e-9)


class TestVolumeConstants:
    def test_euclidean_unity(self, euclid3):
        vc = calculus.volume_constants(euclid3, count=20000)
        assert vc.sigma_bh == pytest.approx(1.0, rel=1e-12)
        assert vc.sigma_ht == pytest.approx(1.0, rel=1e-12)

    def test_randers_closed_forms(self):
        # sigma_BH = (1 - b^2)^{(n+1)/2} and sigma_HT = 1 for Randers norms
        norm = norms.RandersNorm([0.5, 0.0])
        vc = calculus.volume_constants(norm, count=100000)
        assert vc.sigma_bh == pytest.approx(0.75 ** 1.5, rel=1e-4)
        assert vc.sigma_ht == pytest.approx(1.0, rel=1e-4)
        assert vc.sigma_bh_error < 1e-4 and vc.sigma_ht_error < 1e-4

    def test_randers_n3(self, randers3):
        vc = calculus.volume_constants(randers3, count=100000)
        assert vc.sigma_bh == pytest.approx(0.75 ** 2, rel=1e-4)
        assert vc.sigma_ht == pytest.approx(1.0, rel=1e-4)

    def test_positive_for_quartic(self, quartic3):
        vc = calculus.volume_constants(quartic3, count=20000)
        assert vc.sigma_bh > 0 and vc.sigma_ht > 0

    def test_dimension_budget(self):
        with pytest.raises(DimensionTooLarge):
            calculus.volume_constants(norms.EuclideanNorm(7))


class TestFields:
    def test_custom_field_fd_flag(self):
        f = calculus.custom_field(3, lambda x: float(np.sin(x[0]) + x[1] ** 2))
        assert f.uses_fd
        x = np.array([0.3, 0.5, -0.2])
        assert f.d1(x)[0] == pytest.approx(np.cos(0.3), abs=1e-8)
        assert f.d2(x)[1, 1] == pytest.approx(2.0, abs=1e-6)

    @pytest.mark.parametrize("r", [1e-10, 1.0, 1e10])
    def test_custom_field_steps_are_relative(self, r):
        # f = |x|^4 / 4 has df = |x|^2 x and D^2 f = |x|^2 I + 2 x x^T; the
        # step relative to |x| differences it alike at every scale
        f = calculus.custom_field(3, lambda x: 0.25 * x.dot(x) ** 2)
        x = r * np.array([0.48, -0.6, 0.64])
        want_d1 = x.dot(x) * x
        want_d2 = x.dot(x) * np.eye(3) + 2.0 * np.outer(x, x)
        assert np.max(np.abs(f.d1(x) - want_d1)) <= 1e-9 * np.max(np.abs(want_d1))
        assert np.max(np.abs(f.d2(x) - want_d2)) <= 1e-7 * np.max(np.abs(want_d2))

    def test_reparametrized_chain_rule(self, randers3):
        f = calculus.sphere_potential(randers3)
        prof = norms.PolynomialProfile([0.0, 2.0, 0.5])  # phi = 2t + 0.5 t^2
        g = calculus.reparametrized_field(f, prof)
        x = np.array([0.4, -0.3, 0.8])
        t = f.value(x)
        assert g.value(x) == pytest.approx(2 * t + 0.5 * t * t)
        assert np.allclose(g.d1(x), (2.0 + t) * f.d1(x))
        expect_d2 = np.outer(f.d1(x), f.d1(x)) + (2.0 + t) * f.d2(x)
        assert np.allclose(g.d2(x), expect_d2)

    def test_declared_degree_is_the_homogeneity(self, randers3, randers3_mixed, alphabeta3,
                                                 quartic3, rng):
        # f(c x) = c^k f(x) about the origin for each catalog field's declared
        # k, at c = 2^j for j = -60 ... 60, where c x is exact; custom and
        # reparametrized fields declare none
        fields = [f for _, f, _ in catalog_fields(randers3, randers3_mixed)]
        fields += [calculus.sphere_potential(alphabeta3), calculus.cylinder_potential(quartic3, 2)]
        assert [f.degree for f in fields] == [1, 2, 2, 2, 2, 1, 2, 2]
        for f in fields:
            assert not f.anchor.any()
            for x in rng.standard_normal((4, 3)):
                fx = f.value(x)
                for j in range(-60, 61):
                    c = 2.0**j
                    assert abs(f.value(c * x) - c**f.degree * fx) <= 1e-14 * c**f.degree * abs(fx)
        custom = calculus.custom_field(3, lambda x: x.dot(x))
        assert custom.degree is None
        assert calculus.reparametrized_field(
            fields[1], norms.PolynomialProfile([0.0, 2.0, 0.5])).degree is None

    def test_example4_field_values(self, randers3_mixed):
        f = calculus.norm_plus_linear(randers3_mixed, 2)
        x = np.array([3.0, 4.0, 2.0])
        assert f.value(x) == pytest.approx(5.0 + 0.1 * 3.0 + 0.2 * 2.0)
        df = f.d1(x)
        assert df[2] == pytest.approx(0.2)  # f_lambda = b_lambda
        assert np.trace(f.d2(x)) == pytest.approx(1.0 / 5.0)  # (m-1)/|xbar|
