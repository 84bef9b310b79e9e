import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from minkgeom import calculus, duality, norms, randers

from .oracles import dual_norm_grid_sup, subspace_dual_sup
from minkgeom.errors import (BadDimension, DegenerateMetric, NoConvergence, NotInDomain,
                             ZeroCovector)

settings.register_profile("suite", max_examples=40, deadline=None, derandomize=True)
settings.load_profile("suite")


class TestLegendre:
    def test_euclidean_identity_lowering(self, euclid3):
        assert np.allclose(euclid3.legendre([3.0, 4.0, 0.0]), [3.0, 4.0, 0.0])

    def test_randers_worked_example(self, randers2):
        xi = randers2.legendre([1.0, 0.0])
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
                y2 = duality.legendre_inverse(norm, norm.legendre(y))
                worst = max(worst, np.linalg.norm(y2 - y) / np.linalg.norm(y))
            assert worst <= 1e-9

    def test_norm_preservation(self, family_zoo, rng):
        for norm in family_zoo:
            for _ in range(100):
                y = rng.standard_normal(norm.dim)
                F = norm.value(y)
                assert abs(duality.dual_norm(norm, norm.legendre(y)) - F) <= 1e-10 * F

    def test_duality_pairing(self, family_zoo, rng):
        for norm in family_zoo:
            for _ in range(50):
                xi = rng.standard_normal(norm.dim)
                y = duality.legendre_inverse(norm, xi)
                fstar = duality.dual_norm(norm, xi)
                assert xi @ y == pytest.approx(fstar**2, rel=1e-9)

    def test_newton_matches_closed_forms(self, euclid3, randers3, quartic3, rng):
        # every family with a closed-form Legendre inverse, and a scaled one;
        # the taylor-strategy norms run Newton on order-2 jets
        randers_jets = norms.RandersNorm([0.5, 0.0, 0.0], strategy="taylor")
        quartic_jets = norms.KthRootNorm(4, 3, strategy="taylor")
        for norm in (euclid3, randers3, quartic3, norms.ScaledNorm(randers3, 2.0),
                     randers_jets, quartic_jets):
            for _ in range(50):
                xi = rng.standard_normal(3)
                closed = duality.legendre_inverse(norm, xi)
                newton = duality.legendre_inverse_newton(norm, xi)
                assert np.linalg.norm(closed - newton) <= 1e-9 * np.linalg.norm(closed)

    @pytest.mark.parametrize("make", [
        lambda: norms.AlphaBetaNorm(norms.PolynomialProfile([2.0]), 0.0, 2),
        lambda: norms.ScaledNorm(norms.EuclideanNorm(2, strategy="taylor"), 2),
    ], ids=["alpha_beta", "scaled"])
    def test_newton_accepts_converged_small_covectors(self, make):
        # the acceptance bound is of degree 1 in xi, like the residual, so a
        # converged solve at |xi| = 1e-3 is accepted
        norm = make()
        rng = np.random.default_rng(0)
        for _ in range(50):
            v = rng.standard_normal(2)
            xi = 1e-3 * v / np.linalg.norm(v)
            y = duality.legendre_inverse_newton(norm, xi)
            assert np.linalg.norm(norm.legendre(y) - xi) <= 1e-12 * np.linalg.norm(xi)

    @pytest.mark.parametrize("make", [
        lambda: norms.KthRootNorm(4, 3),
        lambda: norms.KthRootNorm(4, 5),
        lambda: norms.KthRootNorm(6, 3),
        lambda: norms.AlphaBetaNorm(norms.PolynomialProfile([1.0, 1.0, 0.1]), 0.3, 3),
    ], ids=["kth_root_4_n3", "kth_root_4_n5", "kth_root_6_n3", "alpha_beta"])
    def test_newton_converges_on_every_image(self, make):
        # 1000 covectors L(y), y standard normal: the Armijo backtracking on
        # phi = G - xi.y meets the bound on each, without a RuntimeWarning
        # (the suite makes those errors), where g degenerates near the
        # coordinate hyperplanes too; a search that takes any step shrinking
        # |L(y) - xi| stalls on 18, 29 and 919 of them for the k-th roots.
        # One call solves the stacked covectors
        norm = make()
        rng = np.random.default_rng(0)
        xis = np.array([norm.legendre(rng.standard_normal(norm.dim)) for _ in range(1000)])
        for xi, y in zip(xis, duality.legendre_inverse_newton(norm, xis)):
            assert np.linalg.norm(norm.legendre(y) - xi) <= 1e-12 * np.linalg.norm(xi)

    @pytest.mark.parametrize("k", [4, 6])
    def test_kth_root_inverse_matches_newton(self, k):
        # the closed form against the oracle to 1e-13 relative, for |xi| from
        # 1e-3 to 1e3, every coordinate at least a quarter of the largest: g
        # degenerates on the coordinate hyperplanes, and y with it
        rng = np.random.default_rng(600 + k)
        for n in range(2, 7):
            norm = norms.KthRootNorm(k, n)
            xis = np.array([rng.choice([-1.0, 1.0], n) * rng.uniform(0.25, 1.0, n)
                            * 10.0 ** rng.uniform(-3, 3) for _ in range(20)])
            for xi, want in zip(xis, duality.legendre_inverse_newton(norm, xis)):
                got = duality.legendre_inverse(norm, xi)
                assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want), (n, xi)

    def test_newton_rejects_a_residual_above_the_bound(self):
        # L(y) rounded to a 1e-10 grid stays 3e-11 from xi, 30 times the bound
        class Coarse(norms.EuclideanNorm):
            def _derivatives(self, y, order):
                d = super()._derivatives(y, order)
                return norms.Derivatives(d.F, np.round(d.d1, 10), d.d2)

        with pytest.raises(NoConvergence):
            duality.legendre_inverse_newton(Coarse(2), [0.6 + 3e-11, 0.8])
        y = duality.legendre_inverse_newton(Coarse(2), [0.6 + 3e-13, 0.8])
        assert np.linalg.norm(y - [0.6, 0.8]) <= 1e-12
        # rows: one row above the bound fails the call
        with pytest.raises(NoConvergence):
            duality.legendre_inverse_newton(Coarse(2), [[0.6 + 3e-13, 0.8], [0.6 + 3e-11, 0.8]])

    @pytest.mark.parametrize("make", [
        lambda: norms.EuclideanNorm(3),
        lambda: norms.RandersNorm([0.5, -0.2, 0.1]),
        lambda: norms.RandersNorm([0.5, -0.2, 0.1], strategy="taylor"),
        lambda: norms.KthRootNorm(4, 3),
        lambda: norms.KthRootNorm(6, 3),
        lambda: norms.AlphaBetaNorm(norms.PolynomialProfile([1.0, 1.0, 0.1]), 0.3, 3),
        lambda: norms.ScaledNorm(norms.RandersNorm([0.5, -0.2, 0.1]), 1.7),
    ], ids=["euclidean", "randers", "randers_taylor", "kth_root_4", "kth_root_6",
            "alpha_beta", "scaled_randers"])
    def test_newton_rows_are_the_one_point_solves(self, make):
        # each row iterates and backtracks on its own: N rows at sizes from
        # 1e-100 to 1e100 give the bytes of N one-point solves
        norm = make()
        rng = np.random.default_rng(17)
        xis = (np.array([norm.legendre(y) for y in rng.standard_normal((60, 3))])
               * 10.0 ** rng.uniform(-100, 100, (60, 1)))
        rows = duality.legendre_inverse_newton(norm, xis)
        assert rows.shape == xis.shape
        for xi, row in zip(xis, rows):
            assert row.tobytes() == duality.legendre_inverse_newton(norm, xi).tobytes()

    def test_newton_rows_reject_a_bad_row(self, randers3):
        xis = np.array([[0.3, 0.2, 0.1], [0.0, 0.0, 0.0]])
        with pytest.raises(ZeroCovector):
            duality.legendre_inverse_newton(randers3, xis)
        with pytest.raises(BadDimension):
            duality.legendre_inverse_newton(randers3, np.ones((2, 4)))

    def test_zero_covector_rejected(self, randers3):
        with pytest.raises(ZeroCovector, match="covector is zero"):
            duality.legendre_inverse(randers3, np.zeros(3))
        with pytest.raises(ZeroCovector, match="covector is zero"):
            duality.dual_norm(randers3, np.zeros(3))
        # any other finite covector has its preimage, however small
        assert np.array_equal(duality.legendre_inverse(randers3, [1e-10, 0.0, 0.0]),
                              [1e-10 / 2.25, 0.0, 0.0])

    def test_sphere_potential_gradient_is_legendre_image(self, randers3, rng):
        # df of F^2/2 equals L(x): Legendre consistency of the catalog field
        x = rng.standard_normal(3)
        d = randers3.derivatives(x, order=1)
        assert np.allclose(d.d1, randers3.legendre(x))


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
        grid = dual_norm_grid_sup(randers3, xi, count=4000)
        assert grid == pytest.approx(duality.dual_norm(randers3, xi), rel=1e-4)

    def test_kth_root_dual_exponent(self, quartic3):
        xi = np.array([0.5, -1.0, 0.25])
        p = 4.0 / 3.0
        assert duality.dual_norm(quartic3, xi) == pytest.approx(
            float(np.sum(np.abs(xi) ** p) ** (1.0 / p)))

    def test_dual_fundamental_is_inverse_metric(self, family_zoo, rng):
        for norm in family_zoo:
            y = rng.standard_normal(norm.dim)
            xi = norm.legendre(y)
            gstar = duality.dual_fundamental_tensor(norm, xi)
            ginv = np.linalg.inv(norm.derivatives(y, order=2).d2)
            assert np.max(np.abs(gstar - ginv)) <= 1e-8

    @pytest.mark.parametrize("k", [4, 6])
    def test_kth_root_dual_tensor_closed_form(self, monkeypatch, k):
        # the Hessian of F*^2/2 for the l^q norm F*, q = k/(k-1), equals
        # inv(g(L^-1 xi)) at 1e-12 relative and evaluates no k-th root tensor;
        # every coordinate stays at least a quarter of the largest, since g
        # degenerates on the coordinate hyperplanes
        rng = np.random.default_rng(400 + k)
        calls = []
        original = norms.KthRootNorm._analytic

        def counting(self, y, order):
            calls.append(order)
            return original(self, y, order)

        for n in range(2, 7):
            norm = norms.KthRootNorm(k, n)
            for _ in range(10):
                xi = (rng.choice([-1.0, 1.0], n) * rng.uniform(0.25, 1.0, n)
                      * 10.0 ** rng.uniform(-3, 3))
                want = np.linalg.inv(
                    norm.derivatives(duality.legendre_inverse(norm, xi), order=2).d2)
                with monkeypatch.context() as patch:
                    patch.setattr(norms.KthRootNorm, "_analytic", counting)
                    got = duality.dual_fundamental_tensor(norm, xi)
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), (n, xi)
        assert calls == []

    @pytest.mark.parametrize("k", [4, 6])
    def test_kth_root_dual_tensor_on_a_coordinate_hyperplane(self, k):
        # g* is unbounded where a coordinate of xi is 0, and g is singular at
        # its preimage: both raise DegenerateMetric, with no RuntimeWarning
        # (the suite turns those into errors) and no inf returned
        for n in (2, 3, 5):
            norm = norms.KthRootNorm(k, n)
            for i in range(n):
                xi = np.linspace(1.0, 0.5, n) * (-1.0) ** np.arange(n)
                xi[i] = 0.0
                for scale in (1e-200, 1.0, 1e200):
                    with pytest.raises(DegenerateMetric, match=f"xi_{i} = 0"):
                        duality.dual_fundamental_tensor(norm, scale * xi)
                with pytest.raises(DegenerateMetric):
                    norm.fundamental_tensor(duality.legendre_inverse(norm, xi))

    def test_modes(self, randers3):
        # closed form, Newton inversion and the grid sup agree on F*
        xi = np.array([0.9, 0.1, -0.3])
        exact = duality.dual_norm(randers3, xi)
        newton = randers3.value(duality.legendre_inverse_newton(randers3, xi))
        sup = dual_norm_grid_sup(randers3, xi, count=4000)
        assert newton == pytest.approx(exact, rel=1e-10)
        assert sup == pytest.approx(exact, rel=1e-4)


def embedded(ybar, n=3):
    return np.concatenate([ybar, np.zeros(n - len(ybar))])


class TestSubspaceDual:
    def test_euclidean_restriction(self, euclid3):
        tilde = duality.subspace_dual(euclid3, 2)
        assert tilde.family == "euclidean" and tilde.dim == 2

    def test_randers_b_inside_subspace(self):
        tilde = duality.subspace_dual(norms.RandersNorm([0.3, 0.0, 0.0]), 2)
        assert tilde.value([1.0, 0.0]) == pytest.approx(1.3)
        assert tilde.value([0.0, 1.0]) == pytest.approx(1.0)

    def test_randers_b_orthogonal_strict_gap(self):
        norm = norms.RandersNorm([0.0, 0.0, 0.3])
        tilde = duality.subspace_dual(norm, 2)
        ybar = np.array([1.0, 0.0])
        assert tilde.value(ybar) == pytest.approx(np.sqrt(0.91))
        assert norm.value(embedded(ybar)) - tilde.value(ybar) > 0.04  # Ftilde < F restricted
        (oracle,) = subspace_dual_sup(norm, 2, ybar[None], count=4000)
        assert oracle == pytest.approx(tilde.value(ybar), rel=1e-6)

    def test_subspace_inequality(self, randers3_mixed, rng):
        tilde = duality.subspace_dual(randers3_mixed, 2)
        for _ in range(1000):
            ybar = rng.standard_normal(2)
            assert tilde.value(ybar) <= randers3_mixed.value(embedded(ybar)) + 1e-12

    def test_kth_root_restricts(self, quartic3):
        tilde = duality.subspace_dual(quartic3, 2)
        assert tilde.value([1.0, 1.0]) == pytest.approx(2.0 ** 0.25)

    def test_scaled_norm_subspace(self, randers3):
        tilde = duality.subspace_dual(norms.ScaledNorm(randers3, 2.0), 2)
        base = duality.subspace_dual(randers3, 2)
        assert tilde.value([0.3, 0.7]) == pytest.approx(2.0 * base.value([0.3, 0.7]))

    def test_bad_dimension(self, randers3):
        for m in (0, 3, 5):
            with pytest.raises(BadDimension):
                duality.subspace_dual(randers3, m)


@pytest.mark.parametrize("m", [0, 3])
@pytest.mark.parametrize("entry", [
    duality.subspace_dual,
    calculus.cylinder_potential,
    calculus.norm_plus_linear,
    randers.dual_subspace_condition_check,
    lambda norm, m: norm.restricted(m),
], ids=["subspace_dual", "cylinder_potential", "norm_plus_linear",
        "dual_subspace_condition_check", "restricted"])
def test_subspace_dimension_rule_is_shared(entry, m, randers3):
    # every entry point taking a subspace dimension requires 1 <= m < n
    with pytest.raises(BadDimension, match=r"subspace dimension must satisfy 1 <= m < 3"):
        entry(randers3, m)


@given(ybar=st.tuples(st.floats(-5, 5), st.floats(-5, 5)).filter(
    lambda t: np.linalg.norm(t) > 1e-3))
def test_subspace_dual_never_exceeds_restriction(ybar):
    norm = norms.RandersNorm([0.1, 0.0, 0.2])
    tilde = duality.subspace_dual(norm, 2)
    assert tilde.value(np.array(ybar)) <= norm.value(embedded(ybar)) + 1e-12


# -- the base class's generic dual geometry ------------------------------------

AB_PROFILE = norms.PolynomialProfile([1.0, 0.5, 0.2])


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("factor", [None, 1.7], ids=["alpha_beta", "scaled_alpha_beta"])
def test_generic_dual_tensor_is_inverse_metric_at_preimage(n, factor):
    norm = norms.AlphaBetaNorm(AB_PROFILE, 0.4, n)
    if factor is not None:
        norm = norms.ScaledNorm(norm, factor)
    rng = np.random.default_rng(500 + n)
    for _ in range(20):
        xi = rng.standard_normal(n) * 10.0 ** rng.uniform(-2, 2)
        want = np.linalg.inv(norm.derivatives(duality.legendre_inverse(norm, xi), order=2).d2)
        got = duality.dual_fundamental_tensor(norm, xi)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), xi


@pytest.mark.parametrize("make", [
    lambda: norms.EuclideanNorm(4),
    lambda: norms.KthRootNorm(4, 4),
    lambda: norms.AlphaBetaNorm(AB_PROFILE, 0.4, 4),
], ids=["euclidean", "kth_root", "alpha_beta"])
def test_generic_subspace_dual_is_restriction(make):
    norm = make()
    rng = np.random.default_rng(7)
    for m in (2, 3):
        tilde, want = duality.subspace_dual(norm, m), norm.restricted(m)
        assert type(tilde) is type(want) and tilde.dim == m
        for _ in range(10):
            ybar = rng.standard_normal(m)
            assert tilde.value(ybar) == want.value(ybar)


def test_family_without_inverse_raises():
    # the inverse is a required hook: no silent Newton in its place
    class NoInverse(norms.MinkowskiNorm):
        family = "no_inverse"

        def _value(self, y):
            return math.sqrt(y.dot(y))

    norm = NoInverse(3, strategy="fd")
    for entry in (duality.legendre_inverse, duality.dual_norm, duality.dual_fundamental_tensor):
        with pytest.raises(NotImplementedError):
            entry(norm, [1.0, 0.5, 0.0])


# -- the alpha-beta Legendre inverse against the Newton oracle -------------------

AB_PROFILES = ([1.0, 1.0, 0.1], [1.0, 0.5, 0.2], [1.0, 0.3, 0.0, 0.05])
AB_B = (-0.8, -0.3, 0.0, 0.3, 0.6)


@pytest.fixture(scope="module")
def alpha_beta_pairs():
    # every pair is a Minkowski norm at every n: the constructor's exact
    # criterion (Chern & Shen, Lemma 1.1.2) checks it wherever the test
    # below builds the norm
    return [(coeffs, b) for coeffs in AB_PROFILES for b in AB_B]


@pytest.mark.parametrize("n", [2, 3, 5, 6])
def test_alpha_beta_inverse_matches_newton(alpha_beta_pairs, n):
    # on the e1 axis, 1e-9 off it and generic with |xi| in [0.1, 1e3]: the
    # hook agrees with Newton, meets L(y) = xi, is 1-homogeneous, commutes
    # with a rotation fixing e1, and g*(xi) g(y) = I
    rng = np.random.default_rng(300 + n)
    e1, off = np.eye(n)[0], 1e-9 * np.eye(n)[-1]
    Q = np.eye(n)
    Q[1:, 1:] = np.linalg.qr(rng.standard_normal((n - 1, n - 1)))[0]
    for coeffs, b in alpha_beta_pairs:
        norm = norms.AlphaBetaNorm(norms.PolynomialProfile(coeffs), b, n)
        covectors = [2.5 * e1, -0.4 * e1, e1 + off, -e1 - off, 7.0 * (e1 - off)]
        for size in (0.1, 1.0, 37.0, 1e3):
            v = rng.standard_normal(n)
            covectors.append(size * v / np.linalg.norm(v))
        for xi in covectors:
            y = norm._legendre_inverse(xi)
            scale = np.linalg.norm(y)
            oracle = duality.legendre_inverse_newton(norm, xi)
            assert np.linalg.norm(y - oracle) <= 1e-13 * np.linalg.norm(oracle), (coeffs, b, xi)
            assert np.linalg.norm(norm.legendre(y) - xi) <= 1e-14 * np.linalg.norm(xi)
            for lam in (1e-3, 0.7, 2.0**20):
                assert np.linalg.norm(norm._legendre_inverse(lam * xi) - lam * y) <= (
                    1e-14 * lam * scale)
            assert np.linalg.norm(norm._legendre_inverse(Q @ xi) - Q @ y) <= 1e-14 * scale
            gstar = duality.dual_fundamental_tensor(norm, xi)
            assert np.max(np.abs(gstar @ norm.fundamental_tensor(y) - np.eye(n))) <= 1e-12


def _angle(y):
    return math.atan2(float(np.linalg.norm(y[1:])), float(y[0]))


@pytest.mark.parametrize("n", [2, 3, 5])
def test_alpha_beta_rows_solve_the_angle_of_the_one_point_inverse(alpha_beta_pairs, n):
    # the rows' Newton angle against the one-point Illinois angle, on the
    # e1 axis, 1e-9 off it and at random covectors of sizes 1e-3 to 1e3.
    # Both stop once the image angle is within 2 ulp of psi, the angle of
    # xi; where dTheta/dt is small that leaves Illinois up to about 1.6e-15
    # relative off the root that Newton meets, hence 2e-15
    rng = np.random.default_rng(400 + n)
    e1, off = np.eye(n)[0], 1e-9 * np.eye(n)[-1]
    V = rng.standard_normal((64, n))
    Xi = np.vstack([[2.5 * e1, -0.4 * e1, e1 + off, -e1 - off],
                    V * np.logspace(-3, 3, len(V))[:, None]])
    for coeffs, b in alpha_beta_pairs:
        norm = norms.AlphaBetaNorm(norms.PolynomialProfile(coeffs), b, n)
        Y, F, g = norm._dual_rows(Xi)[:3]
        for xi, y, Fi, gi in zip(Xi, Y, F, g):
            one = norm._legendre_inverse(xi)
            if _angle(one) > 0.0:
                assert abs(_angle(y) - _angle(one)) <= 2e-15 * _angle(one), (coeffs, b, xi)
            assert np.linalg.norm(y - one) <= 1e-14 * np.linalg.norm(one), (coeffs, b, xi)
            assert Fi == pytest.approx(norm.value(one), rel=1e-14, abs=0.0)
            want = norm.fundamental_tensor(one)
            assert np.max(np.abs(gi - want)) <= 1e-13 * np.max(np.abs(want))


# -- F* from one family body ---------------------------------------------------

CLOSED_FORM_DUALS = {
    "euclidean": lambda n: norms.EuclideanNorm(n),
    "randers": lambda n: norms.RandersNorm(np.linspace(0.5, -0.3, n) / math.sqrt(n)),
    "kth_root_4": lambda n: norms.KthRootNorm(4, n),
    "kth_root_6": lambda n: norms.KthRootNorm(6, n),
    "scaled_randers": lambda n: norms.ScaledNorm(norms.RandersNorm(np.full(n, 0.4 / n)), 1e3),
    "scaled_kth_root": lambda n: norms.ScaledNorm(norms.KthRootNorm(4, n), 1e-2),
}


def base_dual_values(norm, Xi):
    """``_dual_values`` with the base body of ``_dual_value``, F at the
    Legendre preimage, in place of the family's closed form."""
    W, s = norms._as_rows(Xi, norm)
    F = s * norms.MinkowskiNorm._dual_value(norm, W)
    return np.where(F > 0.0, F, np.nan)


def _scaled_rows(rng, n, count=200):
    """Random covector rows of sizes log-uniform in [1e-150, 1e150], both ends included."""
    exps = np.concatenate(([-150.0, 150.0], rng.uniform(-150.0, 150.0, count - 2)))
    return rng.standard_normal((count, n)) * 10.0 ** exps[:, None]


@pytest.mark.parametrize("family", CLOSED_FORM_DUALS)
@pytest.mark.parametrize("n", [2, 3, 6])
def test_closed_form_dual_values_match_the_base_body(family, n):
    # each family's closed-form F* (|xi|, the Randers dual coefficients, the
    # l^q norm, base / c) against F(L^-1(xi)), on the windowed rows and at
    # every scale through ``_dual_values``
    norm = CLOSED_FORM_DUALS[family](n)
    rng = np.random.default_rng(60 + n)
    Xi = _scaled_rows(rng, n)
    got, want = norm._dual_values(Xi), base_dual_values(norm, Xi)
    assert np.all(np.isfinite(got)) and np.all(got > 0.0)
    assert np.max(abs(got - want) / want) <= 1e-14
    W = norms._as_rows(Xi, norm)[0]
    body, base = norm._dual_value(W), norms.MinkowskiNorm._dual_value(norm, W)
    assert np.max(abs(body - base) / base) <= 1e-14


@pytest.mark.parametrize("family", list(CLOSED_FORM_DUALS) + ["alpha_beta"])
def test_dual_values_are_nan_where_the_base_body_is(family):
    # a zero or non-finite row is NaN; a row whose F* overflows is inf, as F
    # at its preimage is
    norm = (norms.AlphaBetaNorm(norms.PolynomialProfile([1.0, 1.0, 0.1]), 0.3, 3)
            if family == "alpha_beta" else CLOSED_FORM_DUALS[family](3))
    Xi = np.array([[0.0, 0.0, 0.0], [np.nan, 1.0, 0.0], [np.inf, 0.0, 0.0], [1.0, -np.inf, 2.0],
                   [1.7e308, -1.7e308, 1.7e308], [1e-320, 0.0, 0.0], [0.3, -1.2, 0.5]])
    with np.errstate(over="ignore"):
        got, want = norm._dual_values(Xi), base_dual_values(norm, Xi)
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert np.isnan(got[:4]).all() and not np.isnan(got[4:]).any()
    assert np.array_equal(np.isinf(got), np.isinf(want))
    assert np.max(abs(got[5:] - want[5:]) / want[5:]) <= 1e-14


@pytest.mark.parametrize("family", list(CLOSED_FORM_DUALS) + ["alpha_beta"])
def test_one_point_dual_norm_has_the_bits_of_its_row(family):
    # the alpha-beta point solves its angle by Illinois and its row by Newton,
    # which agree to about 1.6e-15 (see the test above), so it is compared
    # to 1e-14
    n = 3
    norm = (norms.AlphaBetaNorm(norms.PolynomialProfile([1.0, 1.0, 0.1]), 0.3, n)
            if family == "alpha_beta" else CLOSED_FORM_DUALS[family](n))
    Xi = _scaled_rows(np.random.default_rng(9), n, 40)
    rows = norm._dual_values(Xi)
    for xi, want in zip(Xi, rows):
        got = duality.dual_norm(norm, xi)
        if family == "alpha_beta":
            assert got == pytest.approx(want, rel=1e-14, abs=0.0)
        else:
            assert np.float64(got).tobytes() == want.tobytes()
    for bad in ([0.0, 0.0, 0.0], [np.nan, 1.0, 0.0], [1.0, np.inf, 0.0]):
        with pytest.raises(ZeroCovector):
            duality.dual_norm(norm, bad)
    with pytest.raises(BadDimension):
        duality.dual_norm(norm, [1.0, 2.0])


class _NegatedAlphaBeta(norms.AlphaBetaNorm):
    """An alpha-beta norm with F negated: its inverse (from the profile) holds,
    and F*, the base body F(L^-1(xi)), is negative."""

    def _value(self, y):
        return -super()._value(y)


def test_one_point_dual_norm_refuses_a_non_positive_value():
    norm = _NegatedAlphaBeta(norms.PolynomialProfile([1.0, 1.0, 0.1]), 0.3, 3)
    with pytest.raises(NotInDomain, match="not positive"):
        duality.dual_norm(norm, [0.3, -1.2, 0.5])
    assert np.isnan(norm._dual_values(np.array([[0.3, -1.2, 0.5]]))).all()
