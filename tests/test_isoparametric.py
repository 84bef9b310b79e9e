import dataclasses
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from minkgeom import (calculus, cli, duality, hypersurface as hs, isoparametric as iso, norms,
                      sampling)
from minkgeom.errors import (LeftRegularRegion, LevelNotReached, MinkGeomError, NotInDomain,
                             NotIsoparametric, NotMonotone)

CONFIGS = Path(__file__).resolve().parents[1] / "demos" / "configs"


class SqrtProfile:
    """phi(t) = sqrt(2t): turns the sphere potential into a distance function."""

    def phi(self, t):
        return np.sqrt(2.0 * t)

    def derivatives(self, t):
        v = np.sqrt(2.0 * t)
        return (v, 1.0 / v, -1.0 / (2.0 * t * v), 0.0, 0.0)


class TestSampling:
    def test_sphere_levels_hit(self, randers3):
        f = calculus.sphere_potential(randers3)
        s = iso.sample_level(randers3, f, 2.0, 32)
        assert len(s.points) == 32 and s.skipped == 0
        for x in s.points:
            assert randers3.value(x) == pytest.approx(2.0, abs=1e-10)
            assert abs(f.value(x) - 2.0) <= 1e-10 * 3.0

    def test_linear_levels_hit(self, randers3):
        c = np.array([1.0, 2.0, 0.5])
        f = calculus.linear_field(c)
        s = iso.sample_level(randers3, f, 1.0, 32)
        for x in s.points:
            assert c @ x == pytest.approx(1.0, abs=1e-10)

    def test_example4_levels_hit(self, randers3_mixed):
        f = calculus.norm_plus_linear(randers3_mixed, 2)
        s = iso.sample_level(randers3_mixed, f, 1.0, 32)
        for x in s.points:
            assert f.value(x) == pytest.approx(1.0, abs=1e-9)

    def test_determinism(self, randers3):
        f = calculus.sphere_potential(randers3)
        a = iso.sample_level(randers3, f, 1.0, 16, seed=3)
        b = iso.sample_level(randers3, f, 1.0, 16, seed=3)
        assert np.array_equal(a.points, b.points)
        c = iso.sample_level(randers3, f, 1.0, 16, seed=4)
        assert not np.allclose(a.points, c.points)

    def test_range_enforced(self, randers3):
        f = calculus.sphere_potential(randers3)
        with pytest.raises(ValueError):
            iso.sample_level(randers3, f, -1.0, 16)

    @pytest.mark.parametrize("c", [1e30, 1e100])
    def test_levels_beyond_the_ladder(self, randers3, c):
        # the Randers sphere of level 1e30 has radius about 1e15, beyond the
        # ladder's end at 2^40; the closed form of a degree-2 field has no
        # span, so it is sampled like level 1
        sphere = calculus.sphere_potential(randers3)
        rep = iso.verify(randers3, sphere, [c, 2.0 * c, 4.0 * c], count=16)
        assert (rep.transnormal_verdict, rep.isoparametric_verdict) == ("yes", "yes")
        a = rep.a_nodes
        assert np.max(np.abs(a[:, 1] / np.sqrt(2.0 * a[:, 0]) - 1.0)) <= 1e-10

    def test_custom_level_beyond_the_ladder_names_the_anchor(self, randers3):
        # a custom field has no degree: its rays are walked on the ladder,
        # and its message cannot say where the level lies
        custom = calculus.custom_field(3, lambda x: 0.5 * x.dot(x))
        with pytest.raises(LevelNotReached, match="check the anchor"):
            iso.verify(randers3, custom, [1e30, 2e30, 4e30], count=16)

    def test_acceptance_is_relative_to_the_level(self, randers3):
        # f = 0.5 |x|^2 rounded down to a multiple of 1e-15 jumps from 0 to
        # 1e-15 across level 1e-20, so each ray's bracket closes on the jump
        # and gives a point with f = 0 or 1e-15: off level 1e-20 by 100% or
        # more, yet within a bound 1e-10 (1 + |t|).  A bound 1e-10 |t|
        # accepts none of them
        step = 1e-15
        jump = calculus.custom_field(3, lambda x: step * math.floor(0.5 * x.dot(x) / step),
                                     lambda x: x, lambda x: np.eye(3))
        with pytest.raises(LevelNotReached, match="16/16 directions"):
            iso.sample_level(randers3, jump, 1e-20, 16)
        # the level's own field meets it on every ray
        exact = calculus.custom_field(3, lambda x: 0.5 * x.dot(x), lambda x: x,
                                      lambda x: np.eye(3))
        assert len(iso.sample_level(randers3, exact, 1e-20, 16).points) == 16

    def test_level_through_the_anchor_is_named(self, randers3):
        # a field of positive degree is 0 at its anchor, so level 0 of a
        # linear field is the hyperplane through it, met by no ray
        with pytest.raises(LevelNotReached, match="passes through the anchor"):
            iso.sample_level(randers3, calculus.linear_field([1.0, 2.0, 0.5]), 0.0, 16)

    @pytest.mark.parametrize("case", ["sphere", "reverse-sphere", "hyperplane", "cylinder",
                                      "counterexample"])
    def test_field_calls_per_point(self, case, monkeypatch):
        # the five Randers model fields of the verify benchmark, at its
        # levels and counts: a point costs at most 3 evaluations of f, one
        # per ray tried (a direction and its mirror) and the acceptance test
        sphere_norm = norms.RandersNorm([0.5, 0.0, 0.0])
        cyl_norm = norms.RandersNorm([0.3, 0.0, 0.0])
        cex_norm = norms.RandersNorm([0.1, 0.0, 0.2])
        norm, field, levels, count = {
            "sphere": (sphere_norm, calculus.sphere_potential(sphere_norm), [0.5, 2.0, 4.5], 64),
            "reverse-sphere": (sphere_norm, calculus.sphere_potential(sphere_norm, reverse=True),
                               [-4.5, -2.0, -0.5], 64),
            "hyperplane": (sphere_norm, calculus.linear_field([1.0, 2.0, 0.5]),
                           [1.0, 2.0, 3.0], 160),
            "cylinder": (cyl_norm, calculus.cylinder_potential(cyl_norm, 2),
                         [0.125, 0.5, 1.125], 64),
            "counterexample": (cex_norm, calculus.norm_plus_linear(cex_norm, 2),
                               [0.8, 1.0, 1.25], 128),
        }[case]
        calls = [0]
        value = calculus.ScalarField.value

        def counting(self, x):
            calls[0] += 1
            return value(self, x)

        monkeypatch.setattr(calculus.ScalarField, "value", counting)
        points = sum(len(iso.sample_level(norm, field, t, count).points) for t in levels)
        assert points == len(levels) * count
        assert calls[0] <= 3 * points

    def test_one_geometry_per_point(self, alphabeta3, quartic3, randers3, monkeypatch,
                                    tmp_path):
        # F*, Delta f and the frame share one Legendre inversion and one
        # subspace-dual reduction per accepted point, and later stages (the
        # curvature table, the Randers witness) read the frames sampling built;
        # the alpha-beta rows solve the angle by their own Newton, so the
        # one-point inverse is called only for a row that falls back, once
        # per such row, and the Newton oracle never.  A geometry
        # is one row of ``level_geometry``, and no stage computes a point's
        # geometry, df or D^2 f again: the witness reads a' from the field's
        # rows
        calls = {"inverse": 0, "newton": 0, "subspace_dual": 0, "geometry": 0, "d1": 0,
                 "d2": 0, "rows": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        cylinder = calculus.cylinder_potential(quartic3, 2)
        monkeypatch.setattr(norms.AlphaBetaNorm, "_legendre_inverse",
                            counting("inverse", norms.AlphaBetaNorm._legendre_inverse))
        monkeypatch.setattr(duality, "legendre_inverse_newton",
                            counting("newton", duality.legendre_inverse_newton))
        monkeypatch.setattr(duality, "subspace_dual",
                            counting("subspace_dual", duality.subspace_dual))
        sphere = calculus.sphere_potential(alphabeta3)
        s = iso.sample_level(alphabeta3, sphere, 2.0, 8)
        assert len(s.points) == 8 and calls["inverse"] == 0
        with monkeypatch.context() as m:
            m.setattr(norms, "ANGLE_NEWTON_STEPS", 0)  # every row falls back
            forced = iso.sample_level(alphabeta3, sphere, 2.0, 8)
        assert calls["inverse"] == len(forced.points) == 8
        assert np.max(np.abs(forced.fstar - s.fstar)) <= 1e-13 * np.max(s.fstar)
        assert calls["newton"] == 0
        s = iso.sample_level(quartic3, cylinder, 2.0, 8)
        assert len(s.points) == 8 and calls["subspace_dual"] <= len(s.points)

        level_geometry = iso.level_geometry

        def counting_rows(norm, field, X):
            calls["rows"] += len(X)
            return level_geometry(norm, field, X)

        monkeypatch.setattr(iso, "level_geometry", counting_rows)
        for module in (calculus, hs):
            monkeypatch.setattr(module, "point_geometry",
                                counting("geometry", calculus.point_geometry))
        for meth in ("d1", "d2"):
            monkeypatch.setattr(calculus.ScalarField, meth,
                                counting(meth, getattr(calculus.ScalarField, meth)))
        config = CONFIGS / "randers_cylinder.json"
        assert cli.main(["curvatures", str(config), "--out", str(tmp_path)]) == 0
        assert calls["rows"] == 3 * 64

        rep = iso.verify(randers3, calculus.sphere_potential(randers3), [0.5, 2.0, 4.5],
                         count=16)
        assert rep.witness is not None
        assert calls["rows"] - 3 * 64 == sum(len(s.points) for s in rep.samples) == 48
        assert calls["geometry"] == calls["d1"] == calls["d2"] == 0


def _counted(field, calls, at=None):
    """A copy of ``field`` that counts its value and d1 calls into ``calls``
    and appends each point f is evaluated at to the list ``at``."""
    def counting(name, fn):
        def wrapper(x):
            calls[name] += 1
            if name == "value" and at is not None:
                at.append(x)
            return fn(x)
        return wrapper
    return dataclasses.replace(field, value_fn=counting("value", field.value_fn),
                               d1_fn=counting("d1", field.d1_fn))


class TestRadialRoot:
    @pytest.mark.parametrize("case", ["randers-sphere", "randers-hyperplane",
                                      "randers-cylinder", "alphabeta-sphere",
                                      "cubic-of-sphere"])
    def test_polish_cost_per_ray(self, case, randers3, alphabeta3):
        # value calls off the ladder's rungs: the regula falsi trials alone,
        # whichever rungs the walk visited.  The catalog fields are copied
        # without their degree, so their rays walk the ladder
        field, t = {
            "randers-sphere": (calculus.sphere_potential(randers3), 2.0),
            "randers-hyperplane": (calculus.linear_field([1.0, 2.0, 0.5]), 0.5),
            "randers-cylinder": (calculus.cylinder_potential(randers3, 2), 2.0),
            "alphabeta-sphere": (calculus.sphere_potential(alphabeta3), 2.0),
            # phi(s) = s + s^3 makes f of degree 6 along the ray: the regula
            # falsi keeps one end for many steps unless the halving runs
            "cubic-of-sphere": (calculus.reparametrized_field(
                calculus.sphere_potential(randers3),
                norms.PolynomialProfile([0.0, 1.0, 0.0, 1.0])), 10.0),
        }[case]
        calls = {"value": 0, "d1": 0}
        at = []
        field = _counted(dataclasses.replace(field, degree=None), calls, at)
        anchor = np.asarray(field.anchor, dtype=float)
        found = 0
        for d in sampling.sphere_directions(field.dim, 16, seed=0):
            for ray in (d, -d):
                at.clear()
                s = iso._radial_root(field, anchor, ray, t)
                rungs = anchor + iso._LADDER[:, None] * ray
                trials = sum(not (rungs == x).all(axis=1).any() for x in at)
                assert trials <= 12
                if s is not None:
                    break
            if s is None:
                continue
            found += 1
            x = anchor + s * ray
            assert abs(field.value(x) - t) <= iso.LEVEL_RESIDUAL * (1.0 + abs(t))
        assert found == 16

    @pytest.mark.parametrize("case", ["randers-sphere", "randers-reverse-sphere",
                                      "randers-hyperplane", "randers-cylinder",
                                      "norm-plus-linear", "alphabeta-sphere",
                                      "cubic-of-sphere", "small-level"])
    def test_met_level_skips_the_polish(self, case, randers3, randers3_mixed, alphabeta3):
        # the regula falsi alone meets the level to 1e-13 |t| on every found
        # ray, and only f is evaluated: no d1 call.  At t = 2^-39 a bound
        # relative to 1 + |t| would admit points percents off the level.  The
        # ladder runs on a copy without the degree, the closed form on the field
        field, t = {
            "randers-sphere": (calculus.sphere_potential(randers3), 2.0),
            "randers-reverse-sphere": (calculus.sphere_potential(randers3, reverse=True), -2.0),
            "randers-hyperplane": (calculus.linear_field([1.0, 2.0, 0.5]), 0.5),
            "randers-cylinder": (calculus.cylinder_potential(randers3, 2), 2.0),
            "norm-plus-linear": (calculus.norm_plus_linear(randers3_mixed, 2), 1.0),
            "alphabeta-sphere": (calculus.sphere_potential(alphabeta3), 2.0),
            "cubic-of-sphere": (calculus.reparametrized_field(
                calculus.sphere_potential(randers3),
                norms.PolynomialProfile([0.0, 1.0, 0.0, 1.0])), 10.0),
            "small-level": (calculus.sphere_potential(randers3), 2.0 * 2.0**-40),
        }[case]
        calls = {"value": 0, "d1": 0}
        for f in (dataclasses.replace(field, degree=None), field):
            f = _counted(f, calls)
            anchor = np.asarray(f.anchor, dtype=float)
            found = 0
            for d in sampling.sphere_directions(f.dim, 16, seed=0):
                for ray in (d, -d):
                    s = iso._radial_root(f, anchor, ray, t)
                    if s is not None:
                        break
                if s is None:
                    continue
                found += 1
                assert abs(f.value(anchor + s * ray) - t) <= 1e-13 * abs(t)
            assert found == 16
        assert calls["d1"] == 0

    def test_zero_level_stops_on_the_bracket_width(self):
        # at t = 0 the residual stop admits only an exact zero, so the width
        # stop 1e-13 s (or an exact zero) ends the search at |x| = sqrt(3)
        field = calculus.custom_field(3, lambda x: x @ x - 3.0)
        s = iso._radial_root(field, np.zeros(3), np.array([1.0, 0.0, 0.0]), 0.0)
        assert s == pytest.approx(np.sqrt(3.0), rel=1e-13, abs=0.0)

    def test_error_inside_the_bracket_skips_the_ray(self):
        # f = |x|^2 raises on a shell strictly inside the rung step that
        # brackets t = 1.5; the first regula falsi trial lands in the shell,
        # the root sqrt(1.5) does not
        t, lo, hi = 1.5, 1.19, 1.215
        a = int(np.searchsorted(iso._LADDER, np.sqrt(t))) - 1
        assert iso._LADDER[a] < lo < hi < np.sqrt(t) < iso._LADDER[a + 1]

        def value(x, shell=True):
            if shell and lo < np.linalg.norm(x) < hi:
                raise MinkGeomError("undefined on the shell")
            return x @ x

        def field(shell):
            return calculus.custom_field(3, lambda x: value(x, shell), lambda x: 2.0 * x,
                                         lambda x: 2.0 * np.eye(3))

        d = np.array([1.0, 0.0, 0.0])
        assert iso._radial_root(field(False), np.zeros(3), d, t) == pytest.approx(np.sqrt(t))
        assert iso._radial_root(field(True), np.zeros(3), d, t) is None

    @pytest.mark.parametrize("k", [-20, 7, 30])
    def test_points_scale_with_the_level(self, randers3, k):
        # f = F^2/2 is 2-homogeneous: level c^2 t is c times level t, and a
        # power of 2 moves the ladder by whole rungs
        f = calculus.sphere_potential(randers3)
        c = 2.0**k
        base = iso.sample_level(randers3, f, 2.0, 16, seed=3).points
        scaled = iso.sample_level(randers3, f, c * c * 2.0, 16, seed=3).points
        assert scaled.shape == base.shape
        err = np.linalg.norm(scaled - c * base, axis=1) / (c * np.linalg.norm(base, axis=1))
        assert np.max(err) <= 1e-13

    @pytest.mark.parametrize("catalog", ["linear", "sphere", "reverse_sphere", "cylinder",
                                         "reverse_cylinder", "norm_plus_linear"])
    def test_closed_form_matches_the_ladder(self, catalog, randers3, randers3_mixed):
        # on a field with a degree the closed form returns the ladder walk's
        # radius to 1e-12, or None on the same rays.  The rays: a direction
        # and its mirror, the x3 axis both ways (the cylinder potentials fail
        # there, and |xbar| + b.x is negative on one side) and a ray on which
        # the linear field vanishes.  The levels t = +-m^k for m from 1e-10
        # to 1e10 keep the radii inside the ladder's span: +-1e-20 to +-1e20
        # at degree 2, +-1e-10 to +-1e10 at degree 1
        field = {
            "linear": calculus.linear_field([1.0, 2.0, 0.5]),
            "sphere": calculus.sphere_potential(randers3),
            "reverse_sphere": calculus.sphere_potential(randers3, reverse=True),
            "cylinder": calculus.cylinder_potential(randers3, 2),
            "reverse_cylinder": calculus.cylinder_potential(randers3, 2, reverse=True),
            "norm_plus_linear": calculus.norm_plus_linear(randers3_mixed, 2),
        }[catalog]
        ladder = dataclasses.replace(field, degree=None)
        d = sampling.sphere_directions(3, 1, seed=0)[0]
        rays = [d, -d, np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -1.0]),
                np.array([2.0, -1.0, 0.0]) / np.sqrt(5.0)]
        outcomes = set()
        for m in (1e-10, 1e-7, 1.5, 1e7, 1e10):
            for t in (m**field.degree, -m**field.degree):
                for ray in rays:
                    want = iso._radial_root(ladder, field.anchor, ray, t)
                    got = iso._radial_root(field, field.anchor, ray, t)
                    outcomes.add(want is None)
                    if want is None:
                        assert got is None, (t, ray)
                    else:
                        assert got == pytest.approx(want, rel=1e-12, abs=0.0), (t, ray)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("c", [1.0, 0.25])
    def test_two_roots_on_a_ray_give_the_nearest(self, randers3, c):
        # f = (|x|^2 - c)^2 meets t = c^2/4 at |x| = sqrt(c/2) and sqrt(3c/2)
        # on every ray.  A custom field declares no degree, so each ray is
        # walked from the bottom rung of the ladder
        field = calculus.custom_field(
            3, lambda x: (x.dot(x) - c) ** 2, lambda x: 4.0 * (x.dot(x) - c) * x,
            lambda x: 4.0 * (x.dot(x) - c) * np.eye(3) + 8.0 * np.outer(x, x))
        assert field.degree is None
        s = iso.sample_level(randers3, field, c * c / 4.0, 16)
        assert len(s.points) == 16
        radii = np.linalg.norm(s.points, axis=1)
        assert np.allclose(radii, np.sqrt(c / 2.0), rtol=1e-10, atol=0.0)


class TestVerify:
    def test_sphere_isoparametric(self, randers3):
        f = calculus.sphere_potential(randers3)
        rep = iso.verify(randers3, f, [0.5, 2.0, 4.5], count=32)
        assert rep.transnormal and rep.isoparametric
        assert rep.constant_principal_curvatures
        assert rep.group_structure == (2,)
        # profiles: a = sqrt(2t), b = n
        assert np.allclose(rep.a_nodes[:, 1], np.sqrt(2 * rep.a_nodes[:, 0]), atol=1e-10)
        assert np.allclose(rep.b_nodes[:, 1], 3.0, atol=1e-10)

    def test_sphere_isoparametric_at_large_scale(self, randers3):
        # critical-point and level tests are relative: x -> cx changes nothing
        f = calculus.sphere_potential(randers3)
        rep = iso.verify(randers3, f, [1e20, 1e21, 1e22], count=16)
        assert (rep.transnormal_verdict, rep.isoparametric_verdict) == ("yes", "yes")
        assert np.allclose(rep.a_nodes[:, 1], np.sqrt(2 * rep.a_nodes[:, 0]), rtol=1e-10)

    @pytest.mark.parametrize("c", [1e-20, 1e-10, 1.0, 1e10, 1e20])
    def test_sphere_isoparametric_at_every_scale(self, randers3, c):
        # F^2/2 is 2-homogeneous: the levels c [1, 2, 4] are the spheres of
        # radius sqrt(2c) times 1, sqrt(2) and 2, however small or large c is
        f = calculus.sphere_potential(randers3)
        rep = iso.verify(randers3, f, [c, 2.0 * c, 4.0 * c], count=16)
        assert (rep.transnormal_verdict, rep.isoparametric_verdict) == ("yes", "yes")
        a = rep.a_nodes
        assert np.max(np.abs(a[:, 1] / np.sqrt(2.0 * a[:, 0]) - 1.0)) <= 1e-10

    @pytest.mark.parametrize("t", [1e10, 1e150, 1e160, 1e200])
    def test_counterexample_verdicts_at_every_scale(self, randers3_mixed, t):
        # Delta f of |xbar| + b.x scales as 1/t, and its spread is measured
        # against a scale of the level, so it stays isoparametric "no"; |xbar|
        # is taken by hypot, so 1e160 and 1e200 meet the level without overflow
        f = calculus.norm_plus_linear(randers3_mixed, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = iso.verify(randers3_mixed, f, [0.8 * t, t, 1.25 * t], count=16)
        assert (rep.transnormal_verdict, rep.isoparametric_verdict) == ("yes", "no")

    @pytest.mark.parametrize("t", [1e-20, 1e-14, 1.0])
    def test_euclidean_sphere_in_a_randers_norm_is_not_transnormal(self, t):
        # F*(df) of |x|^2 / 2 scales as sqrt(t), and its spread is measured
        # against its mean, so no level scale makes it transnormal
        norm = norms.RandersNorm([0.5, 0.0, 0.0])
        f = calculus.sphere_potential(norms.EuclideanNorm(3))
        rep = iso.verify(norm, f, [t, 4.0 * t, 9.0 * t], count=16)
        assert (rep.transnormal_verdict, rep.isoparametric_verdict) == ("no", "no")

    @pytest.mark.parametrize("catalog, levels", [
        ("sphere", [0.5, 2.0, 4.5]),
        ("reverse_sphere", [-4.5, -2.0, -0.5]),
        ("cylinder", [0.125, 0.5, 1.125]),
    ])
    def test_model_fields_raise_nothing_on_the_ladder(self, randers3, catalog, levels):
        # every rung of the ray ladder, down to 2^-40, is a vector with a
        # value; the copy without the degree walks the ladder
        field = dataclasses.replace(cli.build_field({"catalog": catalog, "m": 2}, randers3),
                                    degree=None)
        raised = []
        inner = field.value_fn

        def value_fn(x):
            try:
                return inner(x)
            except MinkGeomError as exc:
                raised.append(exc)
                raise

        field.value_fn = value_fn
        rep = iso.verify(randers3, field, levels, count=8)
        assert rep.isoparametric and raised == []

    def test_linear_isoparametric(self, randers3):
        f = calculus.linear_field([1.0, 2.0, 0.5])
        rep = iso.verify(randers3, f, [1.0, 2.0, 3.0], count=32)
        assert rep.isoparametric
        fstar = duality.dual_norm(randers3, np.array([1.0, 2.0, 0.5]))
        assert np.allclose(rep.a_nodes[:, 1], fstar, atol=1e-12)
        assert np.allclose(rep.b_nodes[:, 1], 0.0, atol=1e-12)

    def test_example4_transnormal_only(self, randers3_mixed):
        f = calculus.norm_plus_linear(randers3_mixed, 2)
        rep = iso.verify(randers3_mixed, f, [0.8, 1.0, 1.25], count=32)
        assert rep.transnormal_verdict == "yes"
        assert rep.isoparametric_verdict == "no"
        assert not rep.isoparametric
        assert np.allclose(rep.a_nodes[:, 1], 1.0, atol=1e-10)
        for st in rep.level_stats:
            assert st["lap_spread"] >= 1e-2

    def test_isoparametric_implies_transnormal(self, randers3_mixed):
        # structural monotonicity of the combined verdict
        f = calculus.norm_plus_linear(randers3_mixed, 2)
        rep = iso.verify(randers3_mixed, f, [0.8, 1.0, 1.25], count=32)
        assert not (rep.isoparametric and not rep.transnormal)

    def test_profile_well_defined_across_levels(self, randers3):
        f = calculus.sphere_potential(randers3)
        rep = iso.verify(randers3, f, [0.5, 1.0, 2.0, 3.0, 4.5], count=32)
        for st in rep.level_stats:
            assert st["fstar_spread"] <= 1e-6 * (1.0 + abs(st["fstar_mean"]))
            assert st["lap_spread"] <= 1e-6 * (1.0 + abs(st["lap_mean"]))

    def test_witness_agreement(self, randers3, randers3_mixed):
        f = calculus.sphere_potential(randers3)
        rep = iso.verify(randers3, f, [0.5, 2.0, 4.5], count=32)
        assert rep.witness["r1_pass"] and rep.witness["r2_pass"]
        f4 = calculus.norm_plus_linear(randers3_mixed, 2)
        rep4 = iso.verify(randers3_mixed, f4, [0.8, 1.0, 1.25], count=32)
        assert rep4.witness["r1_pass"] and not rep4.witness["r2_pass"]

    @pytest.mark.parametrize("t", [1e-3, 1.0, 1e3, 1e6, 1e10])
    def test_witness_flags_at_every_scale(self, randers3, randers3_mixed, t):
        # r1 and r2 are each measured against the size of their own terms,
        # which scale with the level as the residuals do: the counterexample
        # fails r2 and the Randers sphere passes both at every level scale
        levels = [t * c for c in (0.8, 1.0, 1.25)]
        cex = iso.verify(randers3_mixed, calculus.norm_plus_linear(randers3_mixed, 2), levels,
                         count=16)
        assert cex.witness["r1_pass"] and not cex.witness["r2_pass"], cex.witness
        sphere = iso.verify(randers3, calculus.sphere_potential(randers3), levels, count=16)
        assert sphere.witness["r1_pass"] and sphere.witness["r2_pass"], sphere.witness

    def test_needs_three_levels(self, randers3):
        f = calculus.sphere_potential(randers3)
        with pytest.raises(ValueError):
            iso.verify(randers3, f, [1.0, 2.0], count=32)


class TestIdentities:
    def test_sphere_numbers(self, randers3):
        # t = 2: sum k = -1 and a' - b/a = 0.5 - 1.5
        f = calculus.sphere_potential(randers3)
        rep = iso.verify(randers3, f, [0.5, 2.0, 4.5], count=32)
        table = iso.consistency_identities(rep)
        assert table["max_sum_k_vs_profile"] <= 1e-6
        assert table["max_riccati"] <= 1e-6
        assert table["max_model_sum_sq"] <= 1e-9
        s = rep.samples[1]
        assert float(np.sum(s.curvatures[0])) == pytest.approx(-1.0, abs=1e-9)

    def test_hyperplane_residuals_vanish(self, randers3):
        f = calculus.linear_field([1.0, 2.0, 0.5])
        rep = iso.verify(randers3, f, [1.0, 2.0, 3.0], count=32)
        table = iso.consistency_identities(rep)
        assert table["max_sum_k_vs_profile"] <= 1e-10
        assert table["max_riccati"] <= 1e-10

    def test_cylinder_numbers(self):
        # t = 1/2 (r = 1): sum k = -1 = a' - b/a = 1 - 2
        norm = norms.RandersNorm([0.3, 0.0, 0.0])
        f = calculus.cylinder_potential(norm, 2)
        rep = iso.verify(norm, f, [0.125, 0.5, 1.125], count=32)
        table = iso.consistency_identities(rep)
        assert table["max_sum_k_vs_profile"] <= 1e-6
        assert table["max_model_sum_sq"] <= 1e-9
        s = rep.samples[1]
        assert float(np.sum(s.curvatures[0])) == pytest.approx(-1.0, abs=1e-9)

    def test_sphere_numbers_at_small_scale(self, randers3):
        # levels c^2 t with c = 1e-6: points scale by c, curvatures by 1/c,
        # and the flow step h = FLOW_STEP a(t) shrinks with a(t) = c sqrt(2t)
        c = 1e-6
        f = calculus.sphere_potential(randers3)
        rep = iso.verify(randers3, f, [c * c * 0.5, c * c * 2.0, c * c * 4.5], count=32)
        assert (rep.transnormal_verdict, rep.isoparametric_verdict) == ("yes", "yes")
        assert rep.witness["r1_pass"] and rep.witness["r2_pass"]
        assert rep.witness["r2_max"] <= 1e-12
        table = iso.consistency_identities(rep)
        assert table["max_sum_k_vs_profile"] <= 1e-6 / c
        assert table["max_riccati"] <= 1e-6 / c**2
        assert table["max_model_sum_sq"] <= 1e-9 / c**2

    def test_requires_isoparametric(self, randers3_mixed):
        f = calculus.norm_plus_linear(randers3_mixed, 2)
        rep = iso.verify(randers3_mixed, f, [0.8, 1.0, 1.25], count=32)
        with pytest.raises(NotIsoparametric):
            iso.consistency_identities(rep)

    def test_a_failed_flow_step_skips_the_witness_point_and_raises_the_table(self, randers3):
        # a' is read at x +- h n from the field's rows, or from d1 at each row
        # for a field without them; where df fails there, a' is NaN: the
        # witness leaves that point out, and the identity table raises
        # rather than letting the NaN vanish inside max
        f = calculus.sphere_potential(randers3)
        rep = iso.verify(randers3, f, [0.5, 2.0, 4.5], count=16)
        frames = rep.samples[1].frames[:iso.WITNESS_POINTS]
        a, a_prime = iso._profile_slopes(randers3, f, frames)
        assert np.allclose(a_prime, 1.0 / a, rtol=1e-6)  # a = sqrt(2t): a' = 1 / a

        def d1(x):
            if x[0] > 0.0:
                raise NotInDomain("df undefined here")
            return f.d1_fn(x)

        partial = dataclasses.replace(f, rows=None, d1_fn=d1)
        got = iso._profile_slopes(randers3, partial, frames)[1]
        failed = np.array([fr.x[0] > 0.0 for fr in frames])
        assert 0 < failed.sum() < len(frames)
        assert np.isnan(got[failed]).all()
        assert np.max(np.abs(got[~failed] - a_prime[~failed])) <= 1e-12 * np.max(a_prime)
        witness = iso._randers_witness(randers3, partial, rep.samples, rep.tolerance)
        assert witness["r1_max"] == rep.witness["r1_max"] and witness["r2_pass"]
        with pytest.raises(LeftRegularRegion):
            iso.consistency_identities(dataclasses.replace(rep, field=partial))


class TestFlow:
    def test_sphere_arclength_is_radius_gap(self, randers3):
        f = calculus.sphere_potential(randers3)
        s = iso.sample_level(randers3, f, 0.5, 8)
        res = iso.f_segment_flow(randers3, f, s.points[0], 0.5, 2.0)
        assert res.arclength == pytest.approx(1.0, abs=1e-6)  # r: 1 -> 2
        assert res.chord_deviation <= 1e-6
        assert f.value(res.endpoint) == pytest.approx(2.0, abs=1e-10)

    def test_arclength_matches_profile_quadrature(self, randers3):
        f = calculus.sphere_potential(randers3)
        s = iso.sample_level(randers3, f, 0.5, 8)
        res = iso.f_segment_flow(randers3, f, s.points[1], 0.5, 2.0)

        def a(t):  # the transnormal profile, from a small level sample
            return float(iso.sample_level(randers3, f, t, 8).fstar.mean())

        integral, _ = quad(lambda t: 1.0 / a(t), 0.5, 2.0, limit=100)
        assert res.arclength == pytest.approx(integral, abs=1e-6)

    def test_linear_constant_speed(self, randers3):
        c = np.array([1.0, 2.0, 0.5])
        f = calculus.linear_field(c)
        fstar = duality.dual_norm(randers3, c)
        s = iso.sample_level(randers3, f, 1.0, 8)
        res = iso.f_segment_flow(randers3, f, s.points[0], 1.0, 3.0)
        assert res.arclength == pytest.approx(2.0 / fstar, rel=1e-9)
        assert res.chord_deviation <= 1e-9

    def test_reverse_sphere_flow(self, randers3):
        f = calculus.sphere_potential(randers3, reverse=True)
        s = iso.sample_level(randers3, f, -4.5, 8)
        res = iso.f_segment_flow(randers3, f, s.points[0], -4.5, -0.5)
        assert res.arclength == pytest.approx(2.0, abs=1e-6)  # r: 3 -> 1

    def test_arclength_at_every_scale(self, randers3):
        # from F = sqrt(2c) to F = sqrt(8c) is F-distance sqrt(2c) at every c
        f = calculus.sphere_potential(randers3)
        u = np.array([0.6, -0.5, 0.62])
        ratios = []
        for c in (1e-24, 1.0, 1e24):
            x0 = np.sqrt(2.0 * c) / randers3.value(u) * u
            res = iso.f_segment_flow(randers3, f, x0, c, 4.0 * c)
            ratios.append(res.arclength / np.sqrt(2.0 * c))
        assert ratios[0] == pytest.approx(1.0, abs=1e-6)
        assert ratios == pytest.approx([ratios[0]] * 3, rel=1e-12)

    def test_on_level_check_is_relative_at_every_scale(self, randers3):
        # a start on level 2000 c is not on level c, at every scale c; a start
        # on level c flows to level 4 c, relative to c
        f = calculus.sphere_potential(randers3)
        for c in (1e-12, 1.0, 1e12):
            off = iso.sample_level(randers3, f, 2e3 * c, 8).points[0]
            with pytest.raises(ValueError, match="does not lie on the level"):
                iso.f_segment_flow(randers3, f, off, c, 4.0 * c)
            x0 = iso.sample_level(randers3, f, c, 8).points[0]
            res = iso.f_segment_flow(randers3, f, x0, c, 4.0 * c)
            assert f.value(res.endpoint) == pytest.approx(4.0 * c, rel=1e-10)

    def test_flow_rejects_wrong_start(self, randers3):
        f = calculus.sphere_potential(randers3)
        with pytest.raises(ValueError):
            iso.f_segment_flow(randers3, f, np.array([5.0, 0.0, 0.0]), 0.5, 2.0)


class TestReparametrization:
    def test_linear_profile_doubles_a(self, randers3):
        f = calculus.sphere_potential(randers3)
        rep = iso.verify(randers3, f, [0.5, 2.0, 4.5], count=32)
        rep2 = iso.reparametrize_isoparametric(rep, norms.PolynomialProfile([0.0, 2.0]))
        assert rep2.isoparametric
        # a_new(2t) = 2 a(t)
        for (t, a), (t2, a2) in zip(rep.a_nodes, rep2.a_nodes):
            assert t2 == pytest.approx(2 * t)
            assert a2 == pytest.approx(2 * a, rel=1e-9)

    def test_sqrt_profile_gives_distance_function(self, randers3):
        f = calculus.sphere_potential(randers3)
        rep = iso.verify(randers3, f, [0.5, 2.0, 4.5], count=32)
        rep2 = iso.reparametrize_isoparametric(rep, SqrtProfile())
        assert rep2.isoparametric
        assert np.allclose(rep2.a_nodes[:, 1], 1.0, atol=1e-9)
        # b_new(u) = (n - 1) / u at u = sqrt(2t)
        for u, bval in rep2.b_nodes:
            assert bval == pytest.approx(2.0 / u, rel=1e-9)

    def test_cubic_profile_on_hyperplane(self, randers3):
        f = calculus.linear_field([1.0, 2.0, 0.5])
        rep = iso.verify(randers3, f, [1.0, 2.0, 3.0], count=32)
        rep2 = iso.reparametrize_isoparametric(rep, norms.PolynomialProfile([0, 0, 0, 1.0]))
        assert rep2.isoparametric

    def test_transform_formulas(self, randers3):
        # a_new = phi' a, b_new = phi'' a^2 + phi' b at matched levels
        f = calculus.sphere_potential(randers3)
        rep = iso.verify(randers3, f, [0.5, 2.0, 4.5], count=32)
        prof = norms.PolynomialProfile([0.0, 1.0, 0.25])
        rep2 = iso.reparametrize_isoparametric(rep, prof)
        for (t, a), (t2, a2), (_, b), (_, b2) in zip(
                rep.a_nodes, rep2.a_nodes, rep.b_nodes, rep2.b_nodes):
            _, dp, d2p, *_ = prof.derivatives(t)
            assert t2 == pytest.approx(prof.derivatives(t)[0])
            assert a2 == pytest.approx(dp * a, rel=1e-9)
            assert b2 == pytest.approx(d2p * a**2 + dp * b, rel=1e-9)

    def test_monotonicity_enforced(self, randers3):
        f = calculus.sphere_potential(randers3)
        rep = iso.verify(randers3, f, [0.5, 2.0, 4.5], count=32)
        with pytest.raises(NotMonotone):
            iso.reparametrize_isoparametric(rep, norms.PolynomialProfile([0.0, -1.0]))

    def test_requires_isoparametric_report(self, randers3_mixed):
        f = calculus.norm_plus_linear(randers3_mixed, 2)
        rep = iso.verify(randers3_mixed, f, [0.8, 1.0, 1.25], count=32)
        with pytest.raises(NotIsoparametric):
            iso.reparametrize_isoparametric(rep, norms.PolynomialProfile([0.0, 2.0]))


class TestReportSerialization:
    def test_json_schema_and_determinism(self, randers3, tmp_path):
        f = calculus.sphere_potential(randers3)
        rep = iso.verify(randers3, f, [0.5, 2.0, 4.5], count=16)
        rep.scenario_id = "unit"
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        rep.write_json(p1)
        rep2 = iso.verify(randers3, f, [0.5, 2.0, 4.5], count=16)
        rep2.scenario_id = "unit"
        rep2.write_json(p2)
        assert p1.read_bytes() == p2.read_bytes()
        import json
        data = json.loads(p1.read_text())
        assert data["schema"] == 1
        assert data["verdicts"]["isoparametric"] == "yes"
        assert data["profiles"]["a"][0][0] == 0.5

    def test_csv_columns(self, randers3, tmp_path):
        f = calculus.sphere_potential(randers3)
        rep = iso.verify(randers3, f, [0.5, 2.0, 4.5], count=16)
        rep.scenario_id = "unit"
        path = tmp_path / "s.csv"
        rep.write_csv(path)
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        assert header == ["scenario", "level"] + [f"x{i}" for i in range(1, 7)] + \
            ["fstar_df", "laplacian"] + [f"k{i}" for i in range(1, 6)]
        assert len(lines) == 1 + 3 * 16
        first = lines[1].split(",")
        assert first[0] == "unit"
        assert first[5] == "" and first[-1] == ""  # padding columns empty

    def test_csv_columns_beyond_six_dimensions(self, tmp_path):
        # n = 7 has 7 coordinates and 6 curvatures: no padding, no ragged rows
        norm = norms.RandersNorm([0.3] + [0.0] * 6)
        rep = iso.verify(norm, calculus.sphere_potential(norm), [0.5, 2.0, 4.5], count=8)
        path = tmp_path / "s.csv"
        rep.write_csv(path)
        rows = [line.split(",") for line in path.read_text().splitlines()]
        assert rows[0] == ["scenario", "level"] + [f"x{i}" for i in range(1, 8)] + \
            ["fstar_df", "laplacian"] + [f"k{i}" for i in range(1, 7)]
        assert len(rows) == 1 + 3 * 8
        assert {len(r) for r in rows} == {17}
        assert "" not in {v for r in rows[1:] for v in r[1:]}
