import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from minkgeom import duality, norms
from minkgeom.errors import (BadDimension, DegenerateMetric, NotInDomain, ZeroCovector,
                             ZeroVector)

settings.register_profile("suite", max_examples=40, deadline=None, derandomize=True)
settings.load_profile("suite")

vec3 = st.tuples(*([st.floats(-10, 10)] * 3)).filter(
    lambda t: np.linalg.norm(t) > 1e-3
)


class TestEvaluation:
    def test_euclidean_pythagorean(self):
        assert norms.EuclideanNorm(2).value([3.0, 4.0]) == pytest.approx(5.0)

    def test_randers_direct_substitution(self, randers2):
        assert randers2.value([1.0, 0.0]) == pytest.approx(1.5)

    def test_kth_root_example(self):
        assert norms.KthRootNorm(4, 2).value([1.0, 1.0]) == pytest.approx(2.0 ** 0.25)

    def test_zero_vector_rejected(self, randers2):
        with pytest.raises(ZeroVector):
            randers2.value([1e-9, 0.0])

    # input, outcome of norm.value, outcome of duality.dual_norm on RandersNorm
    # b = (0.5, 0, 0): an exception (with its message) or the value returned
    @pytest.mark.parametrize("y, value, dual", [
        ([np.nan, 0.0, 0.0], (ZeroVector, "non-finite"), ZeroCovector),
        ([np.inf, 0.0, 0.0], (ZeroVector, "non-finite"), ZeroCovector),
        ([-np.inf, 1.0, 0.0], (ZeroVector, "non-finite"), ZeroCovector),
        ([1e-9, 0.0, 0.0], (ZeroVector, "zero-exclusion"), ZeroCovector),
        ([1e-170, 0.0, 0.0], (ZeroVector, "zero-exclusion"), ZeroCovector),
        ([0.0, 0.0, 0.0], (ZeroVector, "zero-exclusion"), ZeroCovector),
        # finite entries whose squared norm overflows pass the exclusion test;
        # the Legendre preimage of that covector has non-finite entries
        ([1e200, 0.0, 0.0], math.inf, (ZeroVector, "non-finite")),
        ([1.0, -2.0, 0.5], math.sqrt(5.25) + 0.5, 2.0617842572908165),
    ])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_input_validation_edge_cases(self, randers3, y, value, dual):
        y = np.array(y)
        for fn, want in ((randers3.value, value),
                         (lambda v: duality.dual_norm(randers3, v), dual)):
            if isinstance(want, float):
                assert fn(y) == want
                continue
            exc, match = want if isinstance(want, tuple) else (want, None)
            with pytest.raises(exc, match=match):
                fn(y)

    def test_wrong_shape_rejected(self, randers2):
        with pytest.raises(BadDimension):
            randers2.value([1.0, 0.0, 0.0])

    def test_randers_b_norm_bound_enforced(self):
        with pytest.raises(NotInDomain):
            norms.RandersNorm([1.0, 0.0])
        with pytest.raises(NotInDomain):
            norms.RandersNorm([0.8, 0.7])

    def test_kth_root_k_must_be_even_gt_2(self):
        for k in (2, 3, 5):
            with pytest.raises(NotInDomain):
                norms.KthRootNorm(k, 3)


class TestFundamentalTensor:
    def test_euclidean_identity(self, euclid3, rng):
        y = rng.standard_normal(3)
        assert np.allclose(euclid3.fundamental_tensor(y), np.eye(3))

    def test_randers_worked_example(self, randers2):
        g = randers2.fundamental_tensor([1.0, 0.0])
        assert np.allclose(g, np.diag([2.25, 1.5]), atol=1e-12)
        # cross-check g y . y = F^2
        y = np.array([1.0, 0.0])
        assert g @ y @ y == pytest.approx(randers2.value(y) ** 2)

    def test_kth_root_euler_identity_oracle(self):
        k4 = norms.KthRootNorm(4, 2)
        y = np.array([1.0, 1.0])
        g = k4.fundamental_tensor(y)
        assert g @ y @ y == pytest.approx(np.sqrt(2.0), rel=1e-12)

    @pytest.mark.parametrize("lam", [0.5, 2.0, 7.0])
    def test_homogeneity(self, family_zoo, rng, lam):
        for norm in family_zoo:
            y = rng.standard_normal(norm.dim)
            F = norm.value(y)
            assert abs(norm.value(lam * y) - lam * F) <= 1e-12 * lam * F
            g1 = norm.derivatives(y, order=2).d2
            g2 = norm.derivatives(lam * y, order=2).d2
            assert np.max(np.abs(g1 - g2)) <= 1e-9

    def test_euler_identities_all_families(self, family_zoo, rng):
        for norm in family_zoo:
            for _ in range(10):
                y = rng.standard_normal(norm.dim)
                d = norm.derivatives(y, order=2)
                F = d.F
                assert abs(d.d2 @ y @ y - F**2) <= 1e-9 * F**2
                assert np.max(np.abs(d.d2 @ y - d.d1)) <= 1e-9 * F**2

    def test_euler_identities_fd_strategy(self, rng):
        norm = norms.RandersNorm([0.5, 0.0, 0.0], strategy="fd", validate=False)
        for _ in range(5):
            y = rng.standard_normal(3)
            d = norm.derivatives(y, order=2)
            assert abs(d.d2 @ y @ y - d.F**2) <= 1e-5 * d.F**2

    def test_degenerate_custom_family_rejected(self):
        # phi - s phi' turns negative near |s| = b for this profile
        bad = norms.PolynomialProfile([1.0, 0.0, 2.0])
        with pytest.raises(DegenerateMetric):
            norms.AlphaBetaNorm(bad, 0.9, 3)


class TestCartanTensors:
    def test_euclidean_zero(self, euclid3, rng):
        cd = euclid3.cartan_tensors(rng.standard_normal(3))
        assert np.allclose(cd.C, 0.0)
        assert np.allclose(cd.Ccal, 0.0)

    @given(y=vec3)
    def test_contraction_with_base_direction_vanishes(self, randers3, y):
        cd = randers3.cartan_tensors(np.array(y))
        assert np.max(np.abs(np.einsum("ijk,k->ij", cd.C, np.array(y)))) <= 1e-10

    def test_full_symmetry(self, randers3, quartic3, rng):
        for norm in (randers3, quartic3):
            y = rng.standard_normal(3)
            cd = norm.cartan_tensors(y)
            for perm in ((1, 0, 2), (2, 1, 0), (0, 2, 1)):
                assert np.max(np.abs(cd.C - cd.C.transpose(perm))) <= 1e-9
            for perm in ((3, 1, 2, 0), (0, 3, 2, 1), (1, 0, 2, 3)):
                assert np.max(np.abs(cd.Ccal - cd.Ccal.transpose(perm))) <= 1e-9

    def test_randers_frame_component(self, randers2):
        # Chat_111 = (3 / 2 alpha) beta(e_1) at the unit direction (0, 1)
        y = np.array([0.0, 1.0])
        g = randers2.fundamental_tensor(y)
        v = np.array([1.0, 0.0])
        v = v - (v @ g @ y) / (y @ g @ y) * y
        e1 = v / np.sqrt(v @ g @ v)
        C = randers2.cartan_tensors(y).C
        got = np.einsum("ijk,i,j,k->", C, e1, e1, e1)
        expect = 1.5 * float(randers2.b @ e1)
        assert got == pytest.approx(expect, abs=1e-12)
        assert got == pytest.approx(0.75, abs=1e-12)

    def test_randers_analytic_agrees_with_taylor(self, rng):
        for n in (3, 10):
            analytic = norms.RandersNorm(np.r_[0.4, -0.2, 0.1, np.zeros(n - 3)])
            for _ in range(5):
                y = rng.standard_normal(n)
                da = analytic._analytic(y, 4)
                dt = analytic._taylor(y, 4)
                for name in ("d1", "d2", "d3", "d4"):
                    assert np.max(np.abs(getattr(da, name) - getattr(dt, name))) <= 1e-8

    def test_kth_root_analytic_agrees_with_taylor(self, quartic3, rng):
        y = rng.standard_normal(3)
        da = quartic3._analytic(y, 4)
        dt = quartic3._taylor(y, 4)
        for name in ("d1", "d2", "d3", "d4"):
            assert np.max(np.abs(getattr(da, name) - getattr(dt, name))) <= 1e-8

    def test_fd_cross_check(self, rng):
        fd = norms.RandersNorm([0.5, 0.0, 0.0], strategy="fd", validate=False)
        exact = norms.RandersNorm([0.5, 0.0, 0.0])
        y = rng.standard_normal(3)
        dfd = fd.derivatives(y, order=4)
        dan = exact.derivatives(y, order=4)
        assert np.max(np.abs(dfd.d1 - dan.d1)) <= 1e-8
        assert np.max(np.abs(dfd.d2 - dan.d2)) <= 1e-6
        assert np.max(np.abs(dfd.d3 - dan.d3)) <= 1e-4
        assert np.max(np.abs(dfd.d4 - dan.d4)) <= 1e-2


class TestStructuralHelpers:
    def test_scaled_norm(self, randers3, rng):
        s = randers3.scaled(2.5)
        y = rng.standard_normal(3)
        assert s.value(y) == pytest.approx(2.5 * randers3.value(y))
        assert np.allclose(s.derivatives(y, order=2).d2,
                           2.5**2 * randers3.derivatives(y, order=2).d2)

    def test_restriction(self, randers3, quartic3):
        r = randers3.restricted(2)
        assert r.dim == 2 and np.allclose(r.b, [0.5, 0.0])
        k = quartic3.restricted(2)
        assert k.value([1.0, 1.0]) == pytest.approx(2.0 ** 0.25)

    def test_rotation_support(self, randers3, quartic3):
        theta = 0.3
        Q = np.array([
            [np.cos(theta), -np.sin(theta), 0.0],
            [np.sin(theta), np.cos(theta), 0.0],
            [0.0, 0.0, 1.0],
        ])
        rot = randers3.rotated(Q)
        y = np.array([0.2, -1.0, 0.4])
        assert rot.value(y) == pytest.approx(randers3.value(Q @ y))
        with pytest.raises(BadDimension):
            quartic3.rotated(Q)

    def test_alpha_beta_profile_orders(self):
        prof = norms.PolynomialProfile([1.0, 1.0, 0.1])
        d = prof.derivatives(0.3)
        assert d[0] == pytest.approx(1.0 + 0.3 + 0.1 * 0.09)
        assert d[1] == pytest.approx(1.0 + 0.2 * 0.3)
        assert d[2] == pytest.approx(0.2)
        assert d[3] == 0.0 and d[4] == 0.0

    @pytest.mark.parametrize("coeffs", [
        [], [2.0], [1, 1, 0.1], [0, 0, 0, 1], [0.3, -1.7, 2.5, 1e-3, -4.25, 0.6, 1.1],
    ])
    def test_polynomial_profile_matches_polyval_bitwise(self, coeffs):
        def polyval_derivatives(s):
            # the np.polyval evaluation that Horner replaced, kept as the reference
            out = []
            c = np.array([float(v) for v in coeffs])
            for _ in range(5):
                out.append(float(np.polyval(c[::-1], s)) if c.size else 0.0)
                c = c[1:] * np.arange(1, c.size) if c.size > 1 else np.array([])
            return tuple(out)

        prof = norms.PolynomialProfile(coeffs)
        for s in (-0.0, 0.0, 0, 3, 0.3, -0.7, -3.25, 17.5, 1e-5, np.float64(-0.123456789)):
            got, want = prof.derivatives(s), polyval_derivatives(s)
            assert got == want
            assert [v.hex() for v in got] == [v.hex() for v in want]  # sign of zero too
            assert prof.phi(s) == got[0]

    def test_tabulated_profile_calls_d2phi_three_times(self):
        calls = []

        def d2phi(s):
            calls.append(s)
            return math.exp(s)

        prof = norms.TabulatedProfile(phi=math.exp, dphi=math.exp, d2phi=d2phi)
        d = prof.derivatives(0.2)
        h = norms.TabulatedProfile.FD_STEP
        assert len(calls) == 3
        # the bits of the stencil that evaluated d2phi once per use
        assert d[2] == math.exp(0.2)
        assert d[3] == (math.exp(0.2 + h) - math.exp(0.2 - h)) / (2 * h)
        assert d[4] == (math.exp(0.2 + h) - 2 * math.exp(0.2) + math.exp(0.2 - h)) / h**2

    def test_tabulated_profile_fd_orders(self):
        prof = norms.TabulatedProfile(
            phi=lambda s: np.exp(s), dphi=lambda s: np.exp(s), d2phi=lambda s: np.exp(s))
        d = prof.derivatives(0.2)
        assert d[3] == pytest.approx(np.exp(0.2), rel=1e-6)
        assert d[4] == pytest.approx(np.exp(0.2), rel=1e-4)
