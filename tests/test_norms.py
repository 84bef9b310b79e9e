import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from minkgeom import duality, hypersurface, norms
from minkgeom.errors import (BadDimension, DegenerateMetric, MinkGeomError, NotInDomain,
                             ZeroCovector, ZeroVector)

from .oracles import cartan_tensors, grid_validate, unchecked_alpha_beta

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
        with pytest.raises(ZeroVector, match="is zero"):
            randers2.value([0.0, 0.0])
        # any other finite vector has its value, however small
        assert randers2.value([1e-9, 0.0]) == 1.5000000000000002e-09

    # input, outcome of norm.value, outcome of duality.dual_norm on RandersNorm
    # b = (0.5, 0, 0): an exception (with its message) or the value returned
    @pytest.mark.parametrize("y, value, dual", [
        ([np.nan, 0.0, 0.0], (ZeroVector, "non-finite"), ZeroCovector),
        ([np.inf, 0.0, 0.0], (ZeroVector, "non-finite"), ZeroCovector),
        ([-np.inf, 1.0, 0.0], (ZeroVector, "non-finite"), ZeroCovector),
        # small and large vectors have their values: F = 1.5 y1 and F* = y1 2/3
        # (to an ulp); beyond 2^+-64, and where y.y under- or overflows, both
        # are s F(y/s) with s a power of two
        ([1e-9, 0.0, 0.0], 1.5000000000000002e-09, 6.666666666666668e-10),
        ([1e-170, 0.0, 0.0], 1.4999999999999999e-170, 6.666666666666668e-171),
        ([0.0, 0.0, 0.0], (ZeroVector, "vector is zero"), ZeroCovector),
        ([1e200, 0.0, 0.0], 1.5e200, 6.666666666666667e+199),
        ([1.0, -2.0, 0.5], math.sqrt(5.25) + 0.5, 2.0617842572908165),
    ])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_inputs_scale_out(self, family_zoo, rng):
        # y.y overflows beyond about 1e154 and the quartic's y**4 beyond 1e77;
        # F and F* stay finite and 1-homogeneous up to 1e250
        u = rng.standard_normal(3)
        u /= np.linalg.norm(u)
        for norm in family_zoo:
            F, Fstar = norm.value(u), duality.dual_norm(norm, u)
            for c in (1e80, 1e160, 1e200, 1e250):
                assert norm.value(c * u) == pytest.approx(c * F, rel=1e-14)
                assert duality.dual_norm(norm, c * u) == pytest.approx(c * Fstar, rel=1e-13)
        # alpha and b.y both overflow, with opposite signs: inf - inf is nan
        r = norms.RandersNorm([0.5, 0.5, 0.5])
        assert r.value([-1.5e308] * 3) == pytest.approx(1.5e308 * r.value([-1.0] * 3), rel=1e-14)

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
        norm = norms.RandersNorm([0.5, 0.0, 0.0], strategy="fd")
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
        cd = cartan_tensors(euclid3, rng.standard_normal(3))
        assert np.allclose(cd.C, 0.0)
        assert np.allclose(cd.Ccal, 0.0)

    @given(y=vec3)
    def test_contraction_with_base_direction_vanishes(self, randers3, y):
        cd = cartan_tensors(randers3, np.array(y))
        assert np.max(np.abs(np.einsum("ijk,k->ij", cd.C, np.array(y)))) <= 1e-10

    def test_full_symmetry(self, randers3, quartic3, rng):
        for norm in (randers3, quartic3):
            y = rng.standard_normal(3)
            cd = cartan_tensors(norm, y)
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
        C = cartan_tensors(randers2, y).C
        got = np.einsum("ijk,i,j,k->", C, e1, e1, e1)
        expect = 1.5 * float(randers2.b @ e1)
        assert got == pytest.approx(expect, abs=1e-12)
        assert got == pytest.approx(0.75, abs=1e-12)

    def test_randers_analytic_agrees_with_taylor(self, rng):
        for n in (2, 3, 4, 5, 6, 10):
            for size in (0.1, 0.5, 0.9):
                b = rng.standard_normal(n)
                norm = norms.RandersNorm(size * b / np.linalg.norm(b))
                for _ in range(5):
                    _assert_analytic_kernels(norm, rng.standard_normal(n))

    def test_kth_root_analytic_agrees_with_taylor(self, rng):
        for n in (2, 3, 4, 5, 6):
            for k in (4, 6):
                norm = norms.KthRootNorm(k, n)
                for _ in range(5):
                    # g degenerates on the coordinate hyperplanes, so every
                    # coordinate stays at least a quarter of the largest
                    y = rng.choice([-1.0, 1.0], n) * rng.uniform(0.25, 1.0, n)
                    _assert_analytic_kernels(norm, y)

    def test_fd_cross_check(self, rng):
        fd = norms.RandersNorm([0.5, 0.0, 0.0], strategy="fd")
        exact = norms.RandersNorm([0.5, 0.0, 0.0])
        y = rng.standard_normal(3)
        dfd = fd.derivatives(y, order=4)
        dan = exact.derivatives(y, order=4)
        assert np.max(np.abs(dfd.d1 - dan.d1)) <= 1e-8
        assert np.max(np.abs(dfd.d2 - dan.d2)) <= 1e-6
        assert np.max(np.abs(dfd.d3 - dan.d3)) <= 1e-4
        assert np.max(np.abs(dfd.d4 - dan.d4)) <= 1e-2


@pytest.mark.parametrize("fn", [
    lambda z: float(np.sin(z[0]) * z[1] + z[2] ** 3),
    lambda z: np.outer(np.cos(z), z) * z[1],
], ids=["scalar", "matrix"])
def test_fd_jacobian_is_the_per_axis_loop(fn):
    z, h = np.array([0.3, -1.2, 0.5]), 1e-3
    want = np.zeros(np.shape(fn(z)) + (3,))
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        want[..., i] = (fn(z + e) - fn(z - e)) / (2 * h)
    got = norms.fd_jacobian(fn, z, h)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_fd_gradient_is_the_richardson_loop():
    def fn(z):
        return float(np.exp(z[0]) * z[1] - z[2] ** 4)

    z, h = np.array([0.3, -1.2, 0.5]), 1e-2
    want = np.zeros(3)
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        d_h = (fn(z + e) - fn(z - e)) / (2 * h)
        d_h2 = (fn(z + 0.5 * e) - fn(z - 0.5 * e)) / h
        want[i] = (4 * d_h2 - d_h) / 3
    assert norms.fd_gradient(fn, z, h).tobytes() == want.tobytes()


def _assert_analytic_kernels(norm, y):
    # the closed forms against the jets at 1e-10 relative; d3 and d4 fully
    # symmetric and obeying Euler's identities d3.y = 0 and d4.y = -d3
    da, dt = norm._analytic(y, 4), norm._taylor(y, 4)
    assert da.F == pytest.approx(dt.F, rel=1e-14)
    for name in ("d1", "d2", "d3", "d4"):
        got, want = getattr(da, name), getattr(dt, name)
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want)), (norm, name)
    d3, d4 = da.d3, da.d4
    s3, s4 = np.max(np.abs(d3)), np.max(np.abs(d4))
    for perm in itertools.permutations(range(3)):
        assert np.max(np.abs(d3 - d3.transpose(perm))) <= 1e-13 * s3
    for perm in itertools.permutations(range(4)):
        assert np.max(np.abs(d4 - d4.transpose(perm))) <= 1e-13 * s4
    assert np.max(np.abs(d3 @ y)) <= 1e-12 * s3 * np.linalg.norm(y)
    assert np.max(np.abs(d4 @ y + d3)) <= 1e-12 * s4 * np.linalg.norm(y)


class TestStructuralHelpers:
    def test_scaled_norm(self, randers3, rng):
        s = norms.ScaledNorm(randers3, 2.5)
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
            for order in range(5):
                prefix = prof.derivatives(s, order)
                assert [v.hex() for v in prefix] == [v.hex() for v in want[:order + 1]]


@pytest.mark.parametrize("n", [2, 3, 5, 6])
def test_lower_order_jets_match_order_four(n):
    # jets built to the request's order give the bits of the order-4 jets
    rng = np.random.default_rng(100 + n)
    for norm in (
        norms.AlphaBetaNorm(norms.PolynomialProfile([1.0, 1.0, 0.1]), 0.3, n),
        norms.RandersNorm(np.r_[0.4, -0.2, np.zeros(n - 2)], strategy="taylor"),
        norms.KthRootNorm(4, n, strategy="taylor"),
        norms.EuclideanNorm(n, strategy="taylor"),
    ):
        for _ in range(20):
            y = rng.standard_normal(n)
            full = norm.derivatives(y, order=4)
            for order in (1, 2, 3):
                low = norm._derivatives(y, order)  # computed, not the kept bundle
                assert low.F == full.F
                for k, name in enumerate(("d1", "d2", "d3", "d4"), start=1):
                    got = getattr(low, name)
                    if k <= order:
                        assert np.array_equal(got, getattr(full, name)), (norm, order, name)
                    else:
                        assert got is None


def _memo_norms():
    makers = {
        "euclidean": lambda s: norms.EuclideanNorm(3, strategy=s),
        "randers": lambda s: norms.RandersNorm([0.4, -0.2, 0.1], strategy=s),
        "kth_root": lambda s: norms.KthRootNorm(4, 3, strategy=s),
        "alpha_beta": lambda s: norms.AlphaBetaNorm(
            norms.PolynomialProfile([1.0, 1.0, 0.1]), 0.3, 3, strategy=s),
    }
    cases = []
    for family, make in makers.items():
        for s in norms.STRATEGIES:
            if (family, s) == ("alpha_beta", "analytic"):
                continue  # no closed forms: the constructor rejects it
            cases.append(pytest.param(lambda make=make, s=s: make(s), id=f"{family}-{s}"))
            cases.append(pytest.param(lambda make=make, s=s: norms.ScaledNorm(make(s), 1.7),
                                      id=f"scaled-{family}-{s}"))
    return cases


@pytest.mark.parametrize("make", _memo_norms())
def test_derivatives_keeps_its_last_bundle(monkeypatch, make):
    # a repeat at the same y and an order no higher returns the bits a fresh
    # norm computes, with None above the order and every array read-only; a
    # new y or a higher order computes again
    computed = []
    original = norms.MinkowskiNorm._derivatives

    def counting(self, y, order):
        computed.append(order)
        return original(self, y, order)

    y, y2 = np.array([0.7, -0.4, 0.9]), np.array([0.7, -0.4, 0.9000000000000001])
    fresh = {order: make().derivatives(y, order) for order in (1, 2, 4)}
    norm = make()
    monkeypatch.setattr(norms.MinkowskiNorm, "_derivatives", counting)
    for order in (4, 1, 2, 4):
        got, want = norm.derivatives(y, order), fresh[order]
        assert got.F == want.F
        for k, name in enumerate(("d1", "d2", "d3", "d4"), start=1):
            a, b = getattr(got, name), getattr(want, name)
            if k > order:
                assert a is None and b is None, (order, name)
            else:
                assert a.tobytes() == b.tobytes() and not a.flags.writeable, (order, name)
                with pytest.raises(ValueError):
                    a[(0,) * k] = 1.0
    assert computed == [4]
    norm.derivatives(y2, 2)
    norm.derivatives(y2, 3)
    norm.derivatives(y2, 3)
    norm.derivatives(y2, 1)
    assert computed == [4, 2, 3]


@pytest.mark.parametrize("make, hook", [
    (lambda: norms.EuclideanNorm(3), "_analytic"),
    (lambda: norms.RandersNorm([0.5, 0.0, 0.0]), "_analytic"),
    (lambda: norms.KthRootNorm(4, 3), "_analytic"),
    (lambda: norms.AlphaBetaNorm(norms.PolynomialProfile([1.0, 1.0, 0.1]), 0.3, 3), "_taylor"),
], ids=["euclidean", "randers", "kth_root", "alpha_beta"])
def test_one_bundle_per_direction(monkeypatch, make, hook):
    # order-4 tensors, the Cartan curvature and the Legendre image at one y
    # cost one computation of the family's tensors
    y, X, Y = hypersurface.gram_orthogonal_triple(make(), np.random.default_rng(5))
    norm = make()
    calls = []
    original = getattr(type(norm), hook)

    def counting(self, *args):
        calls.append(args[1])
        return original(self, *args)

    monkeypatch.setattr(type(norm), hook, counting)
    d = norm.derivatives(y, 4)
    Q = hypersurface.cartan_curvature_Q(norm, y, X, Y)
    assert np.array_equal(norm.legendre(y), d.d1) and math.isfinite(Q)
    assert calls == [4]


@pytest.mark.parametrize("n", range(2, 11))
def test_construction_makes_no_derivatives_call(monkeypatch, n):
    # the alpha-beta constructor decides validity from phi's coefficients
    calls = []

    def refuse(name):
        def hook(self, *args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} ran")
        return hook

    monkeypatch.setattr(norms.MinkowskiNorm, "derivatives", refuse("derivatives"))
    monkeypatch.setattr(norms.AlphaBetaNorm, "_value", refuse("_value"))
    norm = norms.AlphaBetaNorm(norms.PolynomialProfile([1.0, 1.0, 0.1]), 0.3, n)
    if n > 2:
        norm.restricted(2)
    assert calls == []


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_constructor_checks_decide_validity(n):
    # ||b|| < 1 and an even k > 2 are exactly strong convexity, so these
    # constructors sample nothing: the grid oracle accepts every norm they accept
    for k in (4, 6, 8):
        grid_validate(norms.KthRootNorm(k, n))
    for size in (0.0, 0.5, 0.9, 0.999):
        for d in (np.eye(n)[0], -np.ones(n) / np.sqrt(n)):
            grid_validate(norms.RandersNorm(size * d))


@pytest.mark.parametrize("make", [lambda: norms.RandersNorm([0.999, 0.0, 0.0]),
                                  lambda: norms.KthRootNorm(8, 3)], ids=["randers", "kth_root"])
def test_closed_form_families_construct_without_the_grid(monkeypatch, make):
    # construction, restriction and the subspace dual evaluate nothing; the
    # grid oracle then accepts what they built
    def refuse(self, *args, **kwargs):
        raise AssertionError("a norm was evaluated during construction")

    with monkeypatch.context() as patch:
        patch.setattr(norms.MinkowskiNorm, "derivatives", refuse)
        for cls in (norms.RandersNorm, norms.KthRootNorm):
            patch.setattr(cls, "_value", refuse)
        norm = make()
        derived = [norm.restricted(2), duality.subspace_dual(norm, 2)]
    for built in [norm] + derived:
        grid_validate(built)
    assert [d.dim for d in derived] == [2, 2]


# -- the alpha-beta validity criterion -------------------------------------------

GRID_MISSES = [  # accepted by the sampled grid before the exact criterion
    ([1.0, 0.0, 0.0, 0.0, 0.4], 0.96, 4),
    ([1.0, 0.0, 0.0, 0.0, 0.4], 0.96, 5),
    ([1.0, 1.560685916993547, 0.27392906590093297, -0.5726094050626782,
      0.13221553118226376], -0.8354122721394381, 4),
]


@pytest.mark.parametrize("coeffs, b, n", GRID_MISSES)
def test_criterion_rejects_what_the_grid_missed(coeffs, b, n):
    # phi (phi - s phi') < 0 at s = b: g(e1) has a negative eigenvalue
    prof = norms.PolynomialProfile(coeffs)
    with pytest.raises(DegenerateMetric, match=r"phi - s phi' > 0 fails at s = "):
        norms.AlphaBetaNorm(prof, b, n)
    g = unchecked_alpha_beta(prof, b, n).derivatives(np.eye(n)[0], 2).d2
    phi, dphi = prof.derivatives(b, 1)
    assert np.linalg.eigvalsh(g)[0] == pytest.approx(phi * (phi - b * dphi), rel=1e-12)
    assert np.linalg.eigvalsh(g)[0] < 0.0


def _failing_s(message):
    return float(message.split("fails at s = ")[1].split(",")[0])


@pytest.mark.parametrize("coeffs, b, n, error, condition", [
    ([0.1, 1.0], 0.5, 3, NotInDomain, "phi > 0"),
    ([0.1, 1.0], -0.5, 2, NotInDomain, "phi > 0"),
    ([], 0.3, 3, NotInDomain, "phi > 0"),
    ([], 0.0, 2, NotInDomain, "phi > 0"),
    ([-1.0, 0.0, 1.0], 0.0, 4, NotInDomain, "phi > 0"),
    ([1.0, 0.0, 2.0], 0.9, 3, DegenerateMetric, "phi - s phi' > 0"),
    ([1.0, 0.0, 2.0], -0.9, 6, DegenerateMetric, "phi - s phi' > 0"),
    ([1.0, 0.0, 2.0], -0.9, 2, DegenerateMetric, "phi - s phi' + (b^2 - s^2) phi'' > 0"),
    ([1.0, 0.0, -0.8], -0.9, 3, DegenerateMetric, "phi - s phi' + (b^2 - s^2) phi'' > 0"),
    ([1.0, 0.0, -0.8], 0.9, 2, DegenerateMetric, "phi - s phi' + (b^2 - s^2) phi'' > 0"),
    ([1.0, 0.0, 2.5, 0.0, -0.5], 1.2, 3, DegenerateMetric, "phi - s phi' > 0"),
    ([1.0, 0.0, 2.5, 0.0, -0.5], -1.2, 2, DegenerateMetric,
     "phi - s phi' + (b^2 - s^2) phi'' > 0"),
])
def test_rejections_name_the_condition_and_a_point(coeffs, b, n, error, condition):
    with pytest.raises(error) as info:
        norms.AlphaBetaNorm(norms.PolynomialProfile(coeffs), b, n)
    message = str(info.value)
    assert message.startswith(f"{condition} fails at s = "), message
    s = _failing_s(message)
    assert abs(s) <= abs(b)
    phi, dphi, ddphi = norms.PolynomialProfile(coeffs).derivatives(s, 2)
    left = {"phi > 0": phi, "phi - s phi' > 0": phi - s * dphi,
            "phi - s phi' + (b^2 - s^2) phi'' > 0": phi - s * dphi + (b * b - s * s) * ddphi}
    assert left[condition] <= 1e-15


@pytest.mark.parametrize("coeffs, b, match", [
    ([1.0], math.nan, "finite b"),
    ([1.0, 0.5], math.inf, "finite b"),
    ([1.0, 0.5], -math.inf, "finite b"),
    ([math.inf], 0.3, r"phi > 0 fails at s = -0.3: .*non-finite"),
    ([1.0, math.nan], -0.3, r"phi > 0 fails at s = -0.3: .*non-finite"),
    ([1.0, 0.0, -math.inf], 0.0, r"phi > 0 fails at s = -0.0: .*non-finite"),
])
def test_non_finite_parameters_are_not_in_the_domain(coeffs, b, match):
    for n in (2, 3):
        with pytest.raises(NotInDomain, match=match):
            norms.AlphaBetaNorm(norms.PolynomialProfile(coeffs), b, n)


def _agreement_rows():
    from .test_duality import AB_B, AB_PROFILES

    rows = [(coeffs, b) for coeffs in AB_PROFILES for b in AB_B] + [([1.0, 0.0, 2.0], 0.9)]
    # near the boundary: 1 - 3 c4 b^4 = phi - s phi' at s = b is zero at c4 = 1/(3 b^4)
    for factor in (1.0 - 1e-3, 1.0 + 1e-3):
        rows.append(([1.0, 0.0, 0.0, 0.0, factor / (3 * 0.96**4)], 0.96))
    rng = np.random.default_rng(13)
    for _ in range(300):
        coeffs = [rng.uniform(0.2, 2.0)] + rng.standard_normal(rng.integers(0, 5)).tolist()
        rows.append((coeffs, rng.uniform(-1.0, 1.0)))
    return rows


def test_criterion_agrees_with_the_grid():
    # every row the grid rejects, the criterion rejects; every row only the
    # criterion rejects has a direction where F <= 0 or g has a negative
    # eigenvalue, at the s its message names; the criterion's verdict does
    # not depend on n
    counts = {}
    for coeffs, b in _agreement_rows():
        prof = norms.PolynomialProfile(coeffs)
        verdicts = []
        for n in (2, 3, 4):
            try:
                norms.AlphaBetaNorm(prof, b, n)
                reason = None
            except (NotInDomain, DegenerateMetric) as exc:
                reason = str(exc)
            verdicts.append(reason is None)
            norm = unchecked_alpha_beta(prof, b, n)
            try:
                grid_validate(norm)
                grid = True
            except (NotInDomain, DegenerateMetric):
                grid = False
            assert grid or reason is not None, (coeffs, b, n)
            if reason is not None and grid:
                c = _failing_s(reason) / b if b else 1.0
                y = np.zeros(n)
                y[:2] = c, math.sqrt(max(0.0, 1.0 - c * c))
                F = norm._value(y)
                assert F <= 0.0 or np.linalg.eigvalsh(norm.derivatives(y, 2).d2)[0] < 0.0, (
                    coeffs, b, n, reason)
            key = (reason is None, grid)
            counts[key] = counts.get(key, 0) + 1
        assert verdicts == [verdicts[0]] * 3, (coeffs, b)
    assert counts[(True, True)] > 300 and counts[(False, False)] > 100, counts


def test_import_does_not_load_numpy_polynomial():
    script = ("import sys, minkgeom\n"
              "minkgeom.AlphaBetaNorm(minkgeom.PolynomialProfile([1, 1, 0.1]), 0.3, 3)\n"
              "assert 'numpy.polynomial' not in sys.modules\n")
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run([sys.executable, "-c", script], cwd=root, capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def test_alpha_beta_rejects_the_analytic_strategy():
    # no closed forms and no silent stand-in: the typed error of the base
    # class, while the default stays the jets
    profile = norms.PolynomialProfile([1.0, 1.0, 0.1])
    with pytest.raises(NotInDomain, match="alpha_beta family has no analytic derivatives"):
        norms.AlphaBetaNorm(profile, 0.3, 3, strategy="analytic")
    assert norms.AlphaBetaNorm(profile, 0.3, 3).strategy == "taylor"


def test_family_without_closed_forms_is_rejected_at_the_default_strategy():
    class Jetless(norms.MinkowskiNorm):
        family = "jetless"

        def _value(self, y):
            return math.sqrt(y.dot(y))

    with pytest.raises(MinkGeomError, match="jetless family has no analytic derivatives"):
        Jetless(3)
    assert Jetless(3, strategy="fd").value([3.0, 4.0, 0.0]) == 5.0


# -- every scale -----------------------------------------------------------------

SCALE_NORMS = {
    "euclidean": lambda: norms.EuclideanNorm(3),
    "randers": lambda: norms.RandersNorm([0.3, -0.1, 0.2]),
    "kth_root_4": lambda: norms.KthRootNorm(4, 3),
    "kth_root_6": lambda: norms.KthRootNorm(6, 3),
    "alpha_beta": lambda: norms.AlphaBetaNorm(norms.PolynomialProfile([1.0, 1.0, 0.1]), 0.3, 3),
    "scaled_kth_root_6": lambda: norms.ScaledNorm(norms.KthRootNorm(6, 3), 1.7),
}


def _scale_results(norm, y, xi) -> dict:
    """Each homogeneous result at (y, xi), keyed by (name, homogeneity degree)."""
    d = norm.derivatives(y, order=4)
    return {("value", 1): norm.value(y), ("F", 1): d.F, ("d1", 1): d.d1, ("d2", 0): d.d2,
            ("d3", -1): d.d3, ("d4", -2): d.d4,
            ("legendre_inverse", 1): duality.legendre_inverse(norm, xi),
            ("dual_norm", 1): duality.dual_norm(norm, xi),
            ("dual_fundamental_tensor", 0): duality.dual_fundamental_tensor(norm, xi)}


@pytest.mark.parametrize("name", SCALE_NORMS)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_results_hold_at_every_scale(name):
    # y = 10^e u for e in [-300, 300]: each result is 10^(e k) times its value
    # at u, k its degree, to 1e-12 wherever that is a normal float; nothing
    # raises or warns, also where it is not
    norm = SCALE_NORMS[name]()
    u = np.array([0.6, -0.5, 0.62])
    v = norm.legendre(u)
    ref = _scale_results(norm, u, v)
    for e in range(-300, 301, 5):
        got = _scale_results(norm, 10.0**e * u, 10.0**e * v)
        for (what, k), want in ref.items():
            mag = float(np.max(np.abs(want)))
            if mag == 0.0:
                assert np.all(got[what, k] == 0.0), (name, what, e)
            elif abs(e * k + math.log10(mag)) <= 300:
                err = float(np.max(np.abs(got[what, k] - want * 10.0 ** (e * k))))
                assert err <= 1e-12 * mag * 10.0 ** (e * k), (name, what, e, err)
    for bad in ([0.0, 0.0, 0.0], [np.nan, 1.0, 0.0], [1.0, -np.inf, 0.0]):
        for fn in (norm.value, norm.derivatives):
            with pytest.raises(ZeroVector):
                fn(bad)
        for fn in (duality.legendre_inverse, duality.dual_norm, duality.dual_fundamental_tensor):
            with pytest.raises(ZeroCovector):
                fn(norm, bad)
