"""The stacked level against the one-point path.

``sample_level`` meets a level's rays, and computes its points' geometry and
frames, as whole arrays where the norm and the field have stacked closed
forms (Randers, Euclidean and scaled norms on the analytic strategy, with a
catalog field).  The one-point reference is ``_radial_root`` per ray and
``frame_at`` (one ``point_geometry``) per point.
"""

import dataclasses

import numpy as np
import pytest

from minkgeom import calculus, hypersurface as hs, isoparametric as iso, norms, sampling
from minkgeom.errors import CriticalPointOnLevel, LevelNotReached, MinkGeomError

REL = 1e-13


def scenario(case):
    """(norm, field, levels) of the five Randers benchmark fields; the
    cylinder's b leaves its plane, so its subspace dual is a ``ScaledNorm``."""
    sphere_norm = norms.RandersNorm([0.5, 0.0, 0.0])
    if case == "sphere":
        return sphere_norm, calculus.sphere_potential(sphere_norm), [0.5, 2.0, 4.5]
    if case == "reverse-sphere":
        return (sphere_norm, calculus.sphere_potential(sphere_norm, reverse=True),
                [-4.5, -2.0, -0.5])
    if case == "hyperplane":
        return sphere_norm, calculus.linear_field([1.0, 2.0, 0.5]), [1.0, 2.0, 3.0]
    if case == "cylinder":
        norm = norms.RandersNorm([0.3, 0.0, 0.2])
        field = calculus.cylinder_potential(norm, 2)
        assert isinstance(field.meta["tilde"], norms.ScaledNorm)
        return norm, field, [0.125, 0.5, 1.125]
    norm = norms.RandersNorm([0.1, 0.0, 0.2])
    return norm, calculus.norm_plus_linear(norm, 2), [0.8, 1.0, 1.25]


CASES = ["sphere", "reverse-sphere", "hyperplane", "cylinder", "counterexample"]


def reference_points(field, t, count, seed):
    """The accepted points of ``sample_level``, one ``_radial_root`` per ray."""
    anchor = np.asarray(field.anchor, dtype=float)
    out = []
    for d in sampling.sphere_directions(field.dim, count, seed=seed):
        s = iso._radial_root(field, anchor, d, t)
        if s is None:
            d = -d
            s = iso._radial_root(field, anchor, d, t)
        if s is not None and abs(field.value(anchor + s * d) - t) <= iso.LEVEL_RESIDUAL * abs(t):
            out.append(anchor + s * d)
    return np.array(out)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("c", [1e-10, 1.0, 1e10, 1e50])
@pytest.mark.parametrize("case", CASES)
def test_stack_matches_the_one_point_path(case, c, seed):
    norm, field, levels = scenario(case)
    for t in levels:
        t = c**field.degree * t
        sample = iso.sample_level(norm, field, t, 32, seed=seed)
        want = reference_points(field, t, 32, seed)
        assert sample.points.shape == want.shape == (32, 3)
        err = np.linalg.norm(sample.points - want, axis=1) / np.linalg.norm(want, axis=1)
        assert np.max(err) <= REL, (t, np.max(err))
        for i, x in enumerate(sample.points):
            ref = hs.frame_at(norm, field, x)
            assert abs(sample.fstar[i] - ref.geometry.fstar) <= REL * ref.geometry.fstar
            assert abs(sample.lap[i] - ref.geometry.lap) <= REL * abs(ref.geometry.lap)
            k, k_ref = np.sort(sample.curvatures[i]), np.sort(ref.principal_curvatures)
            assert np.max(np.abs(k - k_ref)) <= REL * np.max(np.abs(k_ref)), (t, k, k_ref)
            assert [m for _, m in sample.frames[i].groups] == [m for _, m in ref.groups]


def _one_point(field):
    """The field without its stacked rows: every point takes ``point_geometry``."""
    return dataclasses.replace(field, rows=None)


def test_a_critical_row_raises_as_on_the_one_point_path():
    # df shrinks by 1e-12 near one sampled point of the Randers sphere, in
    # the stacked rows and in d1 alike, which puts a critical point within
    # relative distance 1e-8 of it: both paths name the level's critical point
    norm, field, _ = scenario("sphere")
    x0 = iso.sample_level(norm, field, 2.0, 16).points[5]

    def near(X):
        X = np.atleast_2d(X)
        return np.linalg.norm(X - x0, axis=1) <= 1e-12 * np.linalg.norm(x0)

    def d1(x):
        return 1e-12 * field.d1_fn(x) if near(x)[0] else field.d1_fn(x)

    def rows(X, order):
        if order == 0:
            return field.rows(X, 0)
        df, hess = field.rows(X, 2)
        return np.where(near(X)[:, None], 1e-12 * df, df), hess

    critical = dataclasses.replace(field, d1_fn=d1, rows=rows)
    for f in (critical, _one_point(critical)):
        with pytest.raises(CriticalPointOnLevel):
            iso.sample_level(norm, f, 2.0, 16)


def test_a_degenerate_row_raises_as_on_the_one_point_path(monkeypatch):
    # |xbar| + b.x is not differentiable on the x3 axis, where a ray along
    # it meets the level: both paths raise the one-point path's error there
    norm, field, _ = scenario("counterexample")
    directions = sampling.sphere_directions

    def with_the_axis(n, count, seed=0):
        dirs = directions(n, count, seed)
        dirs[0] = [0.0, 0.0, 1.0]
        return dirs

    monkeypatch.setattr(iso, "sphere_directions", with_the_axis)
    raised = []
    for f in (field, _one_point(field)):
        with pytest.raises(MinkGeomError) as info, np.errstate(all="ignore"):
            iso.sample_level(norm, f, 1.0, 16)
        raised.append(type(info.value))
    assert raised[0] is raised[1]


def test_an_unreached_level_raises_as_on_the_one_point_path():
    # level 0 of a linear field passes through its anchor: no ray meets it
    norm, field, _ = scenario("hyperplane")
    for f in (field, _one_point(field)):
        with pytest.raises(LevelNotReached, match="passes through the anchor"):
            iso.sample_level(norm, f, 0.0, 16)


@pytest.mark.parametrize("case", CASES + ["alpha-beta", "quartic-fd"])
def test_point_geometry_calls_per_point(case, monkeypatch):
    # the five Randers fields take no per-point geometry; the alpha-beta
    # (taylor) sphere and the fd quartic sphere take exactly one per point
    if case == "alpha-beta":
        norm = norms.AlphaBetaNorm(norms.PolynomialProfile([1.0, 1.0, 0.1]), 0.3, 3)
        field, levels = calculus.sphere_potential(norm), [0.5, 2.0, 4.5]
    elif case == "quartic-fd":
        norm = norms.KthRootNorm(4, 3, strategy="fd")
        field, levels = calculus.sphere_potential(norm), [0.5, 2.0, 4.5]
    else:
        norm, field, levels = scenario(case)
    calls = [0]
    one_point = calculus.point_geometry

    def counting(*args):
        calls[0] += 1
        return one_point(*args)

    for module in (calculus, hs):
        monkeypatch.setattr(module, "point_geometry", counting)
    points = sum(len(iso.sample_level(norm, field, t, 16).points) for t in levels)
    assert points == 48
    assert calls[0] == (0 if case in CASES else points)


def _rows_norms():
    randers = norms.RandersNorm([0.3, -0.2, 0.4])
    return {
        "euclidean": norms.EuclideanNorm(3),
        "randers": randers,
        "scaled-randers": norms.ScaledNorm(randers, 1.7),
        "randers-taylor": norms.RandersNorm([0.3, -0.2, 0.4], strategy="taylor"),
        "quartic": norms.KthRootNorm(4, 3),
    }


@pytest.mark.parametrize("name", list(_rows_norms()))
def test_rows_match_the_one_point_services_at_every_scale(name):
    # each row is scaled by the rule of _as_vector, so rows of size 1e-200
    # and 1e200, whose squares leave the float range, agree like size 1
    norm = _rows_norms()[name]
    rng = np.random.default_rng(5)
    Y = rng.choice([-1.0, 1.0], (8, 3)) * rng.uniform(0.3, 1.0, (8, 3))
    for c in (1e-200, 1e-20, 1.0, 1e20, 1e200):
        F = norm._values(c * Y)
        Fd, d1, d2 = norm._derivative_rows(c * Y)
        xi = np.array([norm.legendre(c * y) for y in Y])
        grad, Fg, g = norm._dual_rows(xi)
        for i, y in enumerate(c * Y):
            d = norm.derivatives(y, order=2)
            assert F[i] == pytest.approx(norm.value(y), rel=REL, abs=0.0)
            assert Fd[i] == pytest.approx(d.F, rel=REL, abs=0.0)
            assert np.max(np.abs(d1[i] - d.d1)) <= REL * np.max(np.abs(d.d1))
            assert np.max(np.abs(d2[i] - d.d2)) <= REL * np.max(np.abs(d.d2))
            assert np.max(np.abs(grad[i] - y)) <= 1e-12 * np.max(np.abs(y))
            assert Fg[i] == pytest.approx(norm.value(y), rel=1e-12, abs=0.0)
            assert np.max(np.abs(g[i] - d.d2)) <= 1e-12 * np.max(np.abs(d.d2))
    # a zero or non-finite row fails alone
    bad = np.array([[0.0, 0.0, 0.0], [np.inf, 1.0, 0.0], [1.0, 0.5, 0.2]])
    assert np.isnan(norm._values(bad)[:2]).all() and np.isfinite(norm._values(bad)[2])
    assert np.isnan(norm._dual_rows(bad)[1][:2]).all()
