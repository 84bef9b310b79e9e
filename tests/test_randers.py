import numpy as np
import pytest

from minkgeom import calculus, duality, hypersurface as hs, isoparametric as iso, norms
from minkgeom.hypersurface import gram_orthogonal_triple
from minkgeom import randers as rd
from minkgeom.errors import NotInDomain, NotUnit
from minkgeom.sampling import sphere_directions

from .oracles import cylinder_surface_residual, subspace_dual_sup


class TestDualCoefficients:
    def test_dual_coefficients_worked_example(self, randers2):
        assert np.allclose(np.diag(randers2.astar), [16.0 / 9.0, 4.0 / 3.0])
        assert np.allclose(randers2.bstar, [-2.0 / 3.0, 0.0])
        assert randers2.astar[0, 1] == 0.0

    def test_coefficient_identities(self, randers3_mixed):
        b = randers3_mixed.b
        lam = 1.0 - float(b @ b)
        assert np.allclose(randers3_mixed.astar, (lam * np.eye(3) + np.outer(b, b)) / lam**2)
        assert np.allclose(randers3_mixed.bstar, -b / lam)
        assert randers3_mixed.subspace_scale(2) ** 2 <= 1.0 + 1e-15

    def test_split_equality_iff_b_inside(self):
        # subspace_scale(m)^2 = lam + |bbar|^2, which is 1 iff b lies in the subspace
        assert norms.RandersNorm([0.3, 0.0, 0.0]).subspace_scale(2) ** 2 == pytest.approx(1.0)
        assert norms.RandersNorm([0.1, 0.0, 0.2]).subspace_scale(2) ** 2 < 1.0

    @pytest.mark.parametrize("norm", [norms.EuclideanNorm(3), norms.KthRootNorm(4, 3),
                                      norms.ScaledNorm(norms.RandersNorm([0.5, 0.0, 0.0]), 2.0)],
                             ids=["euclidean", "kth_root", "scaled_randers"])
    @pytest.mark.parametrize("call", [
        lambda norm, rng: calculus.norm_plus_linear(norm, 2),
        lambda norm, rng: rd.randers_isoparametric_residual(norm, np.ones(3), np.eye(3), 1.0,
                                                            3.0, 1.0),
        lambda norm, rng: cylinder_surface_residual(norm, 2, 1.0, np.ones(3)),
        lambda norm, rng: rd.lemma61_check(norm, *gram_orthogonal_triple(norm, rng)),
    ], ids=["norm_plus_linear", "isoparametric_residual", "cylinder_residual", "lemma61"])
    def test_requires_randers(self, norm, call, rng):
        # one exception type for one precondition, whichever service checks it
        with pytest.raises(NotInDomain):
            call(norm, rng)

    def test_dual_value_matches_module(self, randers3, rng):
        # F*(xi) = sqrt(xi a* xi) + b*.xi
        for _ in range(50):
            xi = rng.standard_normal(3)
            closed = np.sqrt(xi @ randers3.astar @ xi) + randers3.bstar @ xi
            assert closed == pytest.approx(duality.dual_norm(randers3, xi), rel=1e-12)


class TestGradient:
    def test_b_zero_is_euclidean_raise(self):
        norm = norms.RandersNorm([0.0, 0.0])
        assert np.allclose(duality.legendre_inverse(norm, [0.3, -0.7]), [0.3, -0.7])

    def test_worked_example(self, randers2):
        assert np.allclose(duality.legendre_inverse(randers2, [2.25, 0.0]), [1.0, 0.0],
                           atol=1e-14)

    def test_matches_generic_inversion(self, randers3, rng):
        worst = 0.0
        dfs = np.array([rng.standard_normal(3) for _ in range(100)])
        for df, generic in zip(dfs, duality.legendre_inverse_newton(randers3, dfs)):
            closed = duality.legendre_inverse(randers3, df)
            worst = max(worst, float(np.max(np.abs(closed - generic))))
        assert worst <= 1e-10


class TestDualAgreement:
    @pytest.mark.parametrize("bnorm", [0.1, 0.3, 0.5, 0.7, 0.9 * 0.999])
    def test_analytic_dual_vs_newton(self, bnorm, rng):
        norm = norms.RandersNorm([bnorm, 0.0, 0.0])
        worst = 0.0
        xis = np.array([rng.standard_normal(3) for _ in range(1000)])
        for xi, y in zip(xis, duality.legendre_inverse_newton(norm, xis)):
            analytic = duality.dual_norm(norm, xi)
            worst = max(worst, abs(analytic - norm.value(y)) / analytic)
        assert worst <= 1e-8


def system_residual(norm, f, x, a, b, ap):
    t = f.value(x)
    return rd.randers_isoparametric_residual(norm, f.d1(x), f.d2(x), a(t), b(t), ap(t))


class TestIsoparametricSystem:
    def test_sphere_profiles_satisfy_system(self, randers3, rng):
        f = calculus.sphere_potential(randers3)
        a = lambda t: np.sqrt(2.0 * t)
        b = lambda t: 3.0
        ap = lambda t: 1.0 / np.sqrt(2.0 * t)
        for _ in range(20):
            x = rng.standard_normal(3) * (1.0 + rng.random())
            r1, r2 = system_residual(randers3, f, x, a, b, ap)
            assert abs(r1) <= 1e-9 and abs(r2) <= 1e-8

    def test_cylinder_profiles_satisfy_system(self, rng):
        norm = norms.RandersNorm([0.3, 0.0, 0.0])
        f = calculus.cylinder_potential(norm, 2)
        a = lambda t: np.sqrt(2.0 * t)
        b = lambda t: 2.0
        ap = lambda t: 1.0 / np.sqrt(2.0 * t)
        for _ in range(20):
            x = rng.standard_normal(3)
            if np.linalg.norm(x[:2]) < 0.2:
                continue
            r1, r2 = system_residual(norm, f, x, a, b, ap)
            assert abs(r1) <= 1e-9 and abs(r2) <= 1e-8

    def test_example4_transnormal_but_not_isoparametric(self, randers3_mixed, rng):
        f = calculus.norm_plus_linear(randers3_mixed, 2)
        one = lambda t: 1.0
        # probe profile b = q/(t+c) with q = m - 1, c = 0
        btilde = lambda t: 1.0 / t
        hits = 0
        for _ in range(40):
            x = rng.standard_normal(3) * 1.5
            if np.linalg.norm(x[:2]) < 0.3 or f.value(x) < 0.3:
                continue
            r1, r2 = system_residual(randers3_mixed, f, x, one, btilde, lambda t: 0.0)
            assert abs(r1) <= 1e-12  # transnormal: first equation exact
            beta_gap = abs(float(randers3_mixed.b @ x) - float(randers3_mixed.b[:2] @ x[:2]))
            if beta_gap > 1e-2:
                assert abs(r2) > 1e-6
                hits += 1
        assert hits >= 10


class TestCylinders:
    # the cylinder of radius r is the level r^2/2 of the subspace-dual potential
    def test_equation_b_inside(self):
        norm = norms.RandersNorm([0.3, 0.0, 0.0])
        field = calculus.cylinder_potential(norm, 2)
        # level set is |xbar| + 0.3 x1 = 1
        xbar = np.array([0.4, 0.3])
        s = 1.0 / (np.linalg.norm(xbar) + 0.3 * xbar[0])
        x = np.array([s * xbar[0], s * xbar[1], -0.7])
        assert field.value(x) == pytest.approx(0.5, abs=1e-12)
        assert cylinder_surface_residual(norm, 2, 1.0, x) == pytest.approx(0.0, abs=1e-12)

    def test_equation_b_orthogonal_scaled_circle(self):
        norm = norms.RandersNorm([0.0, 0.0, 0.3])
        field = calculus.cylinder_potential(norm, 2)
        # level set is sqrt(0.91) |xbar| = 1
        radius = 1.0 / np.sqrt(0.91)
        x = np.array([radius, 0.0, 0.4])
        assert field.value(x) == pytest.approx(0.5, abs=1e-12)
        assert cylinder_surface_residual(norm, 2, 1.0, x) == pytest.approx(0.0, abs=1e-12)

    def test_cylinder_curvatures(self):
        norm = norms.RandersNorm([0.3, 0.0, 0.0])
        field = calculus.cylinder_potential(norm, 2)
        s = iso.sample_level(norm, field, 0.5, 16)
        for x in s.points[:4]:
            fr = hs.frame_at(norm, field, x)
            assert np.allclose(sorted(fr.principal_curvatures), [-1.0, 0.0], atol=1e-8)

    def test_reverse_cylinder_curvatures(self):
        norm = norms.RandersNorm([0.3, 0.0, 0.0])
        field = calculus.cylinder_potential(norm, 2, reverse=True)
        s = iso.sample_level(norm, field, -0.5, 16)
        for x in s.points[:4]:
            fr = hs.frame_at(norm, field, x)
            assert np.allclose(sorted(fr.principal_curvatures), [0.0, 1.0], atol=1e-8)
            assert cylinder_surface_residual(norm, 2, 1.0, x, reverse=True) == \
                pytest.approx(0.0, abs=1e-12)


class TestLemma61:
    def test_b_zero_gives_unity(self, rng):
        norm = norms.RandersNorm([0.0, 0.0, 0.0])
        y, X, Y = gram_orthogonal_triple(norm, rng)
        lhs, rhs = rd.lemma61_check(norm, y, X, Y)
        assert lhs == pytest.approx(1.0, abs=1e-12)
        assert rhs == pytest.approx(1.0, abs=1e-12)

    def test_worked_direction(self, rng):
        norm = norms.RandersNorm([0.5, 0.0, 0.0])
        y, X, Y = gram_orthogonal_triple(norm, rng)
        lhs, rhs = rd.lemma61_check(norm, y, X, Y)
        assert rhs == pytest.approx(float(np.linalg.norm(y)) * 0.75, abs=1e-12)
        assert abs(lhs - rhs) <= 1e-7

    def test_unit_vector_enforced(self, rng):
        norm = norms.RandersNorm([0.5, 0.0, 0.0])
        y, X, Y = gram_orthogonal_triple(norm, rng)
        with pytest.raises(NotUnit):
            rd.lemma61_check(norm, 2.0 * y, 2.0 * X, 2.0 * Y)


def assert_subspace_dual_is_restriction(norm, m):
    # where the subspace condition holds, Ftilde = F restricted: the sup
    # oracle at the first 4 of the check's directions, to 1e-8 (1 + F)
    dirs = (sphere_directions(m, rd.SUBSPACE_DIRECTIONS, seed=0) if m > 1
            else np.array([[1.0], [-1.0]]))[:4]
    for u, ftilde in zip(dirs, subspace_dual_sup(norm, m, dirs, count=4000)):
        F = norm.value(np.append(u, np.zeros(norm.dim - m)))
        assert abs(ftilde - F) <= 1e-8 * (1.0 + F)


class TestSubspaceCondition:
    def test_kth_root_always_holds(self, quartic3):
        for m in (1, 2):
            assert rd.dual_subspace_condition_check(quartic3, m)
            assert_subspace_dual_is_restriction(quartic3, m)

    def test_alpha_beta_first_coordinate(self, alphabeta3):
        assert rd.dual_subspace_condition_check(alphabeta3, 2)
        assert_subspace_dual_is_restriction(alphabeta3, 2)

    def test_randers_depends_on_b_support(self):
        inside = norms.RandersNorm([0.3, 0.0, 0.0])
        assert rd.dual_subspace_condition_check(inside, 2)
        assert_subspace_dual_is_restriction(inside, 2)
        assert not rd.dual_subspace_condition_check(norms.RandersNorm([0.0, 0.0, 0.3]), 2)
        # strict gap when the condition fails
        norm = norms.RandersNorm([0.0, 0.0, 0.3])
        ybar = np.array([0.6, -0.8])
        gap = norm.value(np.append(ybar, 0.0)) - duality.subspace_dual(norm, 2).value(ybar)
        assert gap > 1e-3

    @pytest.mark.parametrize("c", [1e-12, 1e-9, 1e-6, 1.0, 1e6, 1e9, 1e12])
    def test_the_check_reads_the_same_at_every_norm_scale(self, c, quartic3, alphabeta3):
        # F_{y^lam}(ybar) is bounded relative to F_y(ybar), so cF reads what
        # F reads: False for a Randers b off the subspace, True for the
        # k-th root and alpha-beta norms
        mixed = norms.RandersNorm([0.1, 0.0, 0.2])
        assert not rd.dual_subspace_condition_check(norms.ScaledNorm(mixed, c), 2)
        assert rd.dual_subspace_condition_check(norms.ScaledNorm(quartic3, c), 2)
        assert rd.dual_subspace_condition_check(norms.ScaledNorm(alphabeta3, c), 2)


class TestModelCoverage:
    def test_example4_field_with_b_inside_is_isoparametric(self):
        # contrast to the counterexample: with b supported inside Vbar the
        # same construction is a reparametrized cylinder potential
        norm = norms.RandersNorm([0.3, 0.0, 0.0])
        f = calculus.norm_plus_linear(norm, 2)
        rep = iso.verify(norm, f, [0.8, 1.0, 1.25], count=24)
        assert rep.isoparametric

    def test_catalog_verdicts_for_other_families(self, quartic3, alphabeta3):
        # sphere and cylinder potentials verify for every supported family
        cases = [
            (quartic3, calculus.sphere_potential(quartic3, reverse=True),
             [-4.5, -2.0, -0.5]),
            (alphabeta3, calculus.sphere_potential(alphabeta3), [0.5, 2.0, 4.5]),
            (alphabeta3, calculus.cylinder_potential(alphabeta3, 2), [0.5, 2.0, 4.5]),
        ]
        for norm, field, levels in cases:
            rep = iso.verify(norm, field, levels, count=16)
            assert rep.isoparametric, (norm.family, field.tag)
            assert rep.constant_principal_curvatures

    def test_example1_quartic_cylinder_verifies(self, quartic3):
        # level sets x^4 + y^4 = r^4 inside R^3
        f = calculus.cylinder_potential(quartic3, 2)
        rep = iso.verify(quartic3, f, [0.5, 2.0, 4.5], count=32)
        assert rep.isoparametric
        assert rep.constant_principal_curvatures
        assert len(rep.group_structure) == 2

    def test_theorem61_group_bound_on_catalog(self, randers3, randers3_mixed):
        # every isoparametric verdict in a Randers space shows <= 2 groups
        cases = [
            (randers3, calculus.sphere_potential(randers3), [0.5, 2.0, 4.5]),
            (randers3, calculus.sphere_potential(randers3, reverse=True), [-4.5, -2.0, -0.5]),
            (randers3, calculus.linear_field([1.0, 2.0, 0.5]), [1.0, 2.0, 3.0]),
            (randers3, calculus.cylinder_potential(randers3, 2), [0.125, 0.5, 1.125]),
            (randers3, calculus.cylinder_potential(randers3, 2, reverse=True),
             [-1.125, -0.5, -0.125]),
            (randers3_mixed, calculus.cylinder_potential(randers3_mixed, 2),
             [0.125, 0.5, 1.125]),
        ]
        for norm, field, levels in cases:
            rep = iso.verify(norm, field, levels, count=24)
            assert rep.isoparametric
            assert len(rep.group_structure) <= 2
