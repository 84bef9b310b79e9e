import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from minkgeom import duality, norms
from minkgeom.errors import BadDimension, ZeroCovector

settings.register_profile("suite", max_examples=40, deadline=None, derandomize=True)
settings.load_profile("suite")


class TestLegendre:
    def test_euclidean_identity_lowering(self, euclid3):
        assert np.allclose(duality.legendre(euclid3, [3.0, 4.0, 0.0]), [3.0, 4.0, 0.0])

    def test_randers_worked_example(self, randers2):
        xi = duality.legendre(randers2, [1.0, 0.0])
        assert np.allclose(xi, [2.25, 0.0], atol=1e-14)
        # oracle: index lowering through g(y)
        g = randers2.fundamental_tensor([1.0, 0.0])
        assert np.allclose(xi, g @ np.array([1.0, 0.0]))

    def test_inverse_examples(self, randers2):
        assert np.allclose(duality.legendre_inverse(norms.EuclideanNorm(2), [3.0, 4.0]),
                           [3.0, 4.0])
        assert np.allclose(duality.legendre_inverse(randers2, [2.25, 0.0]), [1.0, 0.0],
                           atol=1e-14)

    def test_round_trip_all_families(self, family_zoo, rng):
        for norm in family_zoo:
            worst = 0.0
            for _ in range(200):
                y = rng.standard_normal(norm.dim)
                y2 = duality.legendre_inverse(norm, duality.legendre(norm, y))
                worst = max(worst, np.linalg.norm(y2 - y) / np.linalg.norm(y))
            assert worst <= 1e-9

    def test_norm_preservation(self, family_zoo, rng):
        for norm in family_zoo:
            for _ in range(100):
                y = rng.standard_normal(norm.dim)
                F = norm.value(y)
                assert abs(duality.dual_norm(norm, duality.legendre(norm, y)) - F) <= 1e-10 * F

    def test_duality_pairing(self, family_zoo, rng):
        for norm in family_zoo:
            for _ in range(50):
                xi = rng.standard_normal(norm.dim)
                y = duality.legendre_inverse(norm, xi)
                fstar = duality.dual_norm(norm, xi)
                assert xi @ y == pytest.approx(fstar**2, rel=1e-9)

    def test_newton_matches_closed_forms(self, euclid3, randers3, quartic3, rng):
        # every family with a closed-form Legendre inverse, and a scaled one
        for norm in (euclid3, randers3, quartic3, randers3.scaled(2.0)):
            for _ in range(50):
                xi = rng.standard_normal(3)
                closed = duality.legendre_inverse(norm, xi)
                newton = duality.legendre_inverse_newton(norm, xi)
                assert np.linalg.norm(closed - newton) <= 1e-9 * np.linalg.norm(closed)

    def test_zero_covector_rejected(self, randers3):
        with pytest.raises(ZeroCovector):
            duality.legendre_inverse(randers3, [1e-10, 0.0, 0.0])
        with pytest.raises(ZeroCovector):
            duality.dual_norm(randers3, np.zeros(3))

    def test_sphere_potential_gradient_is_legendre_image(self, randers3, rng):
        # df of F^2/2 equals L(x): Legendre consistency of the catalog field
        x = rng.standard_normal(3)
        d = randers3.derivatives(x, order=1)
        assert np.allclose(d.d1, duality.legendre(randers3, x))


class TestDualNorm:
    def test_euclidean(self, euclid3):
        assert duality.dual_norm(euclid3, [3.0, 4.0, 0.0]) == pytest.approx(5.0)

    def test_randers_analytic_value(self, randers2):
        assert duality.dual_norm(randers2, [2.25, 0.0]) == pytest.approx(1.5, abs=1e-14)

    def test_sup_definition_holds(self, randers3, rng):
        xi = np.array([0.7, -0.4, 1.1])
        fstar = duality.dual_norm(randers3, xi)
        for _ in range(500):
            y = rng.standard_normal(3)
            assert fstar >= float(xi @ y) / randers3.value(y) - 1e-12
        y_star = duality.legendre_inverse(randers3, xi)
        assert float(xi @ y_star) / randers3.value(y_star) == pytest.approx(fstar, rel=1e-10)

    def test_grid_oracle_agreement(self, randers3):
        xi = np.array([1.3, -0.2, 0.4])
        grid = duality.dual_norm_grid_sup(randers3, xi, count=4000)
        assert grid == pytest.approx(duality.dual_norm(randers3, xi), rel=1e-4)

    def test_kth_root_dual_exponent(self, quartic3):
        xi = np.array([0.5, -1.0, 0.25])
        p = 4.0 / 3.0
        assert duality.dual_norm(quartic3, xi) == pytest.approx(
            float(np.sum(np.abs(xi) ** p) ** (1.0 / p)))

    def test_dual_fundamental_is_inverse_metric(self, family_zoo, rng):
        for norm in family_zoo:
            y = rng.standard_normal(norm.dim)
            xi = duality.legendre(norm, y)
            gstar = duality.dual_fundamental_tensor(norm, xi)
            ginv = np.linalg.inv(norm.derivatives(y, order=2).d2)
            assert np.max(np.abs(gstar - ginv)) <= 1e-8

    def test_modes(self, randers3):
        # closed form, Newton inversion and the grid sup agree on F*
        xi = np.array([0.9, 0.1, -0.3])
        exact = duality.dual_norm(randers3, xi)
        newton = randers3.value(duality.legendre_inverse_newton(randers3, xi))
        sup = duality.dual_norm_grid_sup(randers3, xi, count=4000)
        assert newton == pytest.approx(exact, rel=1e-10)
        assert sup == pytest.approx(exact, rel=1e-4)


class TestSubspaceDual:
    def test_euclidean_restriction(self, euclid3):
        sd = duality.subspace_dual(euclid3, 2)
        assert sd.norm.family == "euclidean" and sd.norm.dim == 2

    def test_randers_b_inside_subspace(self):
        sd = duality.subspace_dual(norms.RandersNorm([0.3, 0.0, 0.0]), 2)
        assert sd.norm.value([1.0, 0.0]) == pytest.approx(1.3)
        assert sd.norm.value([0.0, 1.0]) == pytest.approx(1.0)

    def test_randers_b_orthogonal_strict_gap(self):
        norm = norms.RandersNorm([0.0, 0.0, 0.3])
        sd = duality.subspace_dual(norm, 2)
        ybar = np.array([1.0, 0.0])
        assert sd.norm.value(ybar) == pytest.approx(np.sqrt(0.91))
        assert sd.gap(ybar) > 0.04  # Ftilde < F restricted, strictly
        oracle = duality.subspace_dual_sup(norm, 2, ybar, count=4000)
        assert oracle == pytest.approx(sd.norm.value(ybar), rel=1e-6)

    def test_subspace_inequality(self, randers3_mixed, rng):
        sd = duality.subspace_dual(randers3_mixed, 2)
        for _ in range(1000):
            ybar = rng.standard_normal(2)
            assert sd.norm.value(ybar) <= randers3_mixed.value(sd.embed(ybar)) + 1e-12

    def test_kth_root_restricts(self, quartic3):
        sd = duality.subspace_dual(quartic3, 2)
        assert sd.norm.value([1.0, 1.0]) == pytest.approx(2.0 ** 0.25)

    def test_scaled_norm_subspace(self, randers3):
        sd = duality.subspace_dual(randers3.scaled(2.0), 2)
        base = duality.subspace_dual(randers3, 2)
        assert sd.norm.value([0.3, 0.7]) == pytest.approx(2.0 * base.norm.value([0.3, 0.7]))

    def test_bad_dimension(self, randers3):
        for m in (0, 3, 5):
            with pytest.raises(BadDimension):
                duality.subspace_dual(randers3, m)


@given(ybar=st.tuples(st.floats(-5, 5), st.floats(-5, 5)).filter(
    lambda t: np.linalg.norm(t) > 1e-3))
def test_subspace_dual_never_exceeds_restriction(ybar):
    norm = norms.RandersNorm([0.1, 0.0, 0.2], validate=False)
    sd = duality.subspace_dual(norm, 2)
    assert sd.norm.value(np.array(ybar)) <= norm.value(sd.embed(ybar)) + 1e-12
