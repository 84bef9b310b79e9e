"""The stacked level against the one-point path.

``sample_levels`` meets the rays of a field with a degree as whole arrays,
and computes the geometry and frames of all its levels as whole arrays, for
every norm family, strategy and field; ``sample_level`` is its call on one
level.  The arrays stay arrays: a ``PointGeometry`` or
``HypersurfacePointFrame`` is a one-row view, built only when asked for.
The one-point reference is the closed form of one ray at a time (the
ladder walk of ``_radial_root`` on a field without a degree) and
``frame_at`` (one ``point_geometry``) per point.  A field is evaluated only
through its ``rows``; ``value``, ``d1`` and ``d2`` are its one-row calls.
"""

import dataclasses
import re

import numpy as np
import pytest

from minkgeom import (calculus, duality, hypersurface as hs, isoparametric as iso, norms,
                      sampling)
from minkgeom.errors import (CriticalPoint, CriticalPointOnLevel, LevelNotReached, MinkGeomError,
                             NotInDomain)

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


def family_scenario(case):
    """(norm, field, levels) beyond the Randers closed forms: the generic rows
    of the other families and strategies, and the custom and reparametrized
    fields, whose rows are built from the user's callables and the base
    field's rows."""
    sphere_levels, cylinder_levels = [0.5, 2.0, 4.5], [0.125, 0.5, 1.125]
    alphabeta = norms.AlphaBetaNorm(norms.PolynomialProfile([1.0, 1.0, 0.1]), 0.3, 3)
    randers = norms.RandersNorm([0.5, 0.0, 0.0])
    if case == "alpha-beta":
        return alphabeta, calculus.sphere_potential(alphabeta), sphere_levels
    if case == "alpha-beta-cylinder":
        return alphabeta, calculus.cylinder_potential(alphabeta, 2), cylinder_levels
    if case in ("quartic", "quartic-fd"):
        norm = norms.KthRootNorm(4, 3, strategy="analytic" if case == "quartic" else "fd")
        return norm, calculus.sphere_potential(norm), sphere_levels
    if case == "quartic-cylinder":
        norm = norms.KthRootNorm(4, 3)
        return norm, calculus.cylinder_potential(norm, 2), cylinder_levels
    if case == "euclidean":
        norm = norms.EuclideanNorm(3)
        return norm, calculus.sphere_potential(norm), sphere_levels
    if case == "randers-taylor":
        norm = norms.RandersNorm([0.5, 0.0, 0.0], strategy="taylor")
        return norm, calculus.sphere_potential(norm), sphere_levels
    if case == "custom":
        # the Randers sphere potential by value alone: fd derivatives, ladder rays
        field = calculus.custom_field(3, lambda x: 0.5 * randers.value(x) ** 2)
        return randers, dataclasses.replace(field, regular_range=(0.0, np.inf)), sphere_levels
    profile = norms.PolynomialProfile([0.0, 2.0, 0.5])  # phi(t) = 2t + t^2/2
    field = calculus.reparametrized_field(calculus.sphere_potential(randers), profile)
    return randers, field, [profile.phi(t) for t in sphere_levels]


FAMILY_CASES = ["alpha-beta", "alpha-beta-cylinder", "quartic", "quartic-fd", "euclidean",
                "randers-taylor", "custom", "reparametrized"]


def reference_points(field, t, count, seed):
    """The accepted points of ``sample_level``, one ray at a time: the closed
    form from the one-point f(anchor + d) on a field with a degree, else the
    ladder walk of ``_radial_root`` on that one ray."""
    anchor = np.asarray(field.anchor, dtype=float)
    out = []
    for d in sampling.sphere_directions(field.dim, count, seed=seed):
        for ray in (d, -d):
            if field.degree is None:
                s = iso._radial_root(field, anchor, ray[None, :], t)[0]
            else:
                s = iso._degree_radii(field.value(anchor + ray), t, field.degree)
            if not np.isnan(s):
                break
        x = anchor + s * ray
        if not np.isnan(s) and abs(field.value(x) - t) <= iso.LEVEL_RESIDUAL * abs(t):
            out.append(x)
    return np.array(out)


def per_row(field):
    """``field`` as a custom field, whose ``rows`` calls the one-point
    ``value``, ``d1`` and ``d2`` at one row at a time, with the same degree,
    anchor and regular range."""
    custom = calculus.custom_field(field.dim, field.value, field.d1, field.d2)
    return dataclasses.replace(custom, degree=field.degree, anchor=field.anchor,
                               regular_range=field.regular_range)


def assert_close(got, want, scale=None):
    """|got - want| <= REL times the largest |want| (or ``scale``)."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    scale = np.max(np.abs(want)) if scale is None else scale
    assert np.max(np.abs(got - want), initial=0.0) <= REL * scale, (got, want)


def assert_matches_frame_at(norm, field, sample):
    """The level's arrays and each one-row view ``sample.frames[i]`` agree
    with ``frame_at`` at the point to REL: F*, Delta f, its term scale, the
    curvatures and their group multiplicities, the normal, and every field
    of the frame and of its point geometry but the eigenvectors, which a
    repeated curvature leaves free within its group."""
    geometry, frames = sample.frames.geometry, sample.frames
    for i, x in enumerate(sample.points):
        ref = hs.frame_at(norm, field, x)
        geo = ref.geometry
        assert_close(sample.fstar[i], geo.fstar)
        assert_close(sample.lap[i], geo.lap)
        assert_close(geometry.lap_scale[i], geo.lap_scale)
        assert geometry.m[i] == geo.m
        k_ref = ref.principal_curvatures
        kscale = np.max(np.abs(k_ref))
        assert_close(sample.curvatures[i], k_ref, scale=kscale)
        assert hs.group_runs(frames.breaks[i])[1] == [m for _, m in ref.groups]
        assert_close(frames.normal[i], ref.normal)
        view = sample.frames[i]
        assert isinstance(view, hs.HypersurfacePointFrame)
        assert np.array_equal(view.x, x)
        for name in ("normal", "tangent_basis"):
            assert_close(getattr(view, name), getattr(ref, name))
        assert_close(view.hhat, ref.hhat, scale=kscale)
        assert_close(view.principal_curvatures, k_ref, scale=kscale)
        assert [m for _, m in view.groups] == [m for _, m in ref.groups]
        assert_close([k for k, _ in view.groups], [k for k, _ in ref.groups], scale=kscale)
        assert isinstance(view.geometry, calculus.PointGeometry)
        assert view.geometry.m == geo.m and view.geometry.norm.dim == geo.norm.dim
        for name in ("fstar", "lap", "lap_scale", "df", "hess", "grad", "g"):
            assert_close(getattr(view.geometry, name), getattr(geo, name))


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
        assert_matches_frame_at(norm, field, sample)


@pytest.mark.parametrize("case", FAMILY_CASES + ["quartic-cylinder"])
def test_every_family_matches_frame_at(case):
    # one level path for every family, strategy and field: the generic rows
    # of alpha-beta, k-th root (analytic and fd) and taylor Randers, and the
    # rows of custom and reparametrized fields, meet ``frame_at``
    norm, field, levels = family_scenario(case)
    for t in levels:
        sample = iso.sample_level(norm, field, t, 16, seed=1)
        assert len(sample.points) == 16
        assert_matches_frame_at(norm, field, sample)


def near_critical(norm, field, t, i, factor=1e-12):
    """(field, x0): ``field`` with df times ``factor`` near x0, the i-th point
    sampled on level t, in its rows and so in d1, which puts a critical
    point within relative distance 1e-8 of x0 (at x0 for a factor 0)."""
    x0 = iso.sample_level(norm, field, t, 16).points[i]

    def rows(X, order):
        if order == 0:
            return field.rows(X, 0)
        df, hess = field.rows(X, 2)
        near = np.linalg.norm(X - x0, axis=1) <= 1e-12 * np.linalg.norm(x0)
        return np.where(near[:, None], factor * df, df), hess

    return dataclasses.replace(field, rows=rows), x0


def test_a_critical_row_raises_as_on_the_one_point_path():
    # the level raises the error of ``point_geometry`` at the near-critical
    # point, with the field's rows and with its one-point calls row by row
    norm, field, _ = scenario("sphere")
    critical, x0 = near_critical(norm, field, 2.0, 5)
    with pytest.raises(CriticalPoint) as ref:
        calculus.point_geometry(norm, critical, x0)
    with pytest.raises(CriticalPointOnLevel) as info:
        iso.sample_level(norm, critical, 2.0, 16)
    assert str(info.value) == f"a sampled point on level 2.0 is critical: {ref.value}"
    with pytest.raises(CriticalPointOnLevel):
        iso.sample_level(norm, per_row(critical), 2.0, 16)


def test_a_degenerate_row_raises_as_on_the_one_point_path(monkeypatch):
    # |xbar| + b.x is not differentiable on the x3 axis, where a ray along
    # it meets the level: the level raises the error of ``point_geometry``
    # at that point, with the field's rows and with its one-point calls
    norm, field, _ = scenario("counterexample")
    directions = sampling.sphere_directions

    def with_the_axis(n, count, seed=0):
        dirs = directions(n, count, seed)
        dirs[0] = [0.0, 0.0, 1.0]
        return dirs

    monkeypatch.setattr(iso, "sphere_directions", with_the_axis)
    axis = np.array([0.0, 0.0, 1.0])
    s = iso._degree_radii(field.value(field.anchor + axis), 1.0, field.degree)
    with pytest.raises(MinkGeomError) as ref, np.errstate(all="ignore"):
        calculus.point_geometry(norm, field, s * axis)
    for f in (field, per_row(field)):
        with pytest.raises(MinkGeomError) as info, np.errstate(all="ignore"):
            iso.sample_level(norm, f, 1.0, 16)
        assert type(info.value) is type(ref.value) and str(info.value) == str(ref.value)


def test_an_error_of_a_custom_derivative_raises_as_on_the_one_point_path():
    # a custom d1 may raise any error: the level raises it at its point, as
    # ``point_geometry`` there does
    randers = norms.RandersNorm([0.5, 0.0, 0.0])
    sphere = calculus.sphere_potential(randers)
    x0 = iso.sample_level(randers, sphere, 2.0, 16).points[3]

    def d1(x):
        if np.linalg.norm(x - x0) <= 1e-12 * np.linalg.norm(x0):
            raise ValueError("d1 undefined here")
        return sphere.d1(x)

    field = calculus.custom_field(3, sphere.value, d1_fn=d1, d2_fn=sphere.d2)
    field = dataclasses.replace(field, degree=2, regular_range=(0.0, np.inf))
    with pytest.raises(ValueError, match="d1 undefined here"):
        calculus.point_geometry(randers, field, x0)
    with pytest.raises(ValueError, match="d1 undefined here"):
        iso.sample_level(randers, field, 2.0, 16)


def test_the_custom_field_error_contract():
    # a custom callable's own error comes out of rows, the one-point calls,
    # point_geometry and sample_level unchanged, even where a critical row
    # of the level comes first; a MinkGeomError is a NaN row instead, which
    # the one-point calls raise as NotInDomain naming x, and a point where f
    # is NaN is not on the level
    randers = norms.RandersNorm([0.5, 0.0, 0.0])
    sphere = calculus.sphere_potential(randers)
    points = iso.sample_level(randers, sphere, 2.0, 16).points
    xc, x0 = points[1], points[3]

    def at(x, p):
        return np.linalg.norm(x - p, axis=-1) <= 1e-12 * np.linalg.norm(p)

    def field(error, critical):
        def value(x):
            if error is MinkGeomError and at(x, x0):
                raise MinkGeomError("f undefined here")
            return sphere.value(x)

        def d1(x):
            if at(x, x0):
                raise error("df undefined here")
            return (1e-12 if critical and at(x, xc) else 1.0) * sphere.d1(x)

        custom = calculus.custom_field(3, value, d1, sphere.d2)
        return dataclasses.replace(custom, degree=2, regular_range=(0.0, np.inf))

    raising = field(ValueError, critical=True)
    with pytest.raises(CriticalPoint):
        calculus.point_geometry(randers, raising, xc)
    for call in (lambda: raising.rows(points, 2), lambda: raising.d1(x0),
                 lambda: raising.d2(x0), lambda: calculus.point_geometry(randers, raising, x0),
                 lambda: iso.sample_level(randers, raising, 2.0, 16)):
        with pytest.raises(ValueError, match="df undefined here"):
            call()
    assert np.array_equal(raising.rows(points, 0), sphere.rows(points, 0))

    failing = field(MinkGeomError, critical=False)
    nan = at(points, x0)
    assert nan.sum() == 1
    for rows in (failing.rows(points, 0),) + failing.rows(points, 2):
        assert np.isnan(rows[nan]).all() and np.isfinite(rows[~nan]).all()
    for call in (failing.value, failing.d1, failing.d2,
                 lambda x: calculus.point_geometry(randers, failing, x)):
        with pytest.raises(NotInDomain, match=re.escape(f"not defined at x={x0!r}")):
            call(x0)
    sample = iso.sample_level(randers, failing, 2.0, 16)
    assert sample.skipped == 1 and np.array_equal(sample.points, points[~nan])


def test_an_unreached_level_raises_as_on_the_one_point_path():
    # level 0 of a linear field passes through its anchor: no ray meets it,
    # nor its mirror, in closed form or on the ladder
    norm, field, _ = scenario("hyperplane")
    for f in (field, per_row(field)):
        with pytest.raises(LevelNotReached, match="passes through the anchor"):
            iso.sample_level(norm, f, 0.0, 16)
    dirs = sampling.sphere_directions(3, 16)
    for rays in (dirs, -dirs):
        assert np.isnan(iso._degree_radii(field.rows(field.anchor + rays, 0), 0.0,
                                          field.degree)).all()
        assert np.isnan(iso._radial_root(field, field.anchor, rays, 0.0)).all()


@pytest.mark.parametrize("case", CASES + FAMILY_CASES + ["quartic-cylinder"])
def test_point_geometry_calls_per_point(case, monkeypatch):
    # no family, strategy or field takes a per-point geometry, except where
    # rows fail the stacked checks: the k-th root cylinder, whose g is
    # singular at every gradient, takes exactly one per point (the
    # subspace-dual reduction)
    norm, field, levels = scenario(case) if case in CASES else family_scenario(case)
    calls = [0]
    one_point = calculus.point_geometry

    def counting(*args):
        calls[0] += 1
        return one_point(*args)

    for module in (calculus, hs):
        monkeypatch.setattr(module, "point_geometry", counting)
    points = sum(len(iso.sample_level(norm, field, t, 16).points) for t in levels)
    assert points == 48
    assert calls[0] == (points if case == "quartic-cylinder" else 0)


def _rows_norms():
    randers = norms.RandersNorm([0.3, -0.2, 0.4])
    quartic = norms.KthRootNorm(4, 3)
    profile = norms.PolynomialProfile([1.0, 1.0, 0.1])
    return {
        "euclidean": norms.EuclideanNorm(3),
        "euclidean-taylor": norms.EuclideanNorm(3, strategy="taylor"),
        "randers": randers,
        "scaled-randers": norms.ScaledNorm(randers, 1.7),
        "randers-taylor": norms.RandersNorm([0.3, -0.2, 0.4], strategy="taylor"),
        "randers-fd": norms.RandersNorm([0.3, -0.2, 0.4], strategy="fd"),
        "quartic": quartic,
        "quartic-taylor": norms.KthRootNorm(4, 3, strategy="taylor"),
        "quartic-fd": norms.KthRootNorm(4, 3, strategy="fd"),
        "scaled-quartic": norms.ScaledNorm(quartic, 1.7),
        "kth-root-6": norms.KthRootNorm(6, 3),
        # one row jet, and the angle of the Legendre inverse by Newton on all rows
        **{f"alpha-beta-n{n}": norms.AlphaBetaNorm(profile, -0.6, n) for n in (2, 3, 5)},
        "scaled-alpha-beta": norms.ScaledNorm(norms.AlphaBetaNorm(profile, -0.6, 3), 1.7),
    }


@pytest.mark.parametrize("name", list(_rows_norms()))
def test_rows_match_the_one_point_services_at_every_scale(name):
    # each row is scaled by the rule of _as_vector, so rows of size 1e-200
    # and 1e200, whose squares leave the float range, agree like size 1.  F,
    # the analytic and fd bundles and the closed-form Legendre inverses are
    # one body for a point and rows, so a row has the bits of its point; a
    # row jet may round a fractional power otherwise, and the alpha-beta
    # rows solve the angle by their own Newton
    norm = _rows_norms()[name]
    n = norm.dim
    jets = norm.strategy == "taylor"
    angle = isinstance(getattr(norm, "base", norm), norms.AlphaBetaNorm)
    rng = np.random.default_rng(5)
    Y = rng.choice([-1.0, 1.0], (8, n)) * rng.uniform(0.3, 1.0, (8, n))
    for c in (1e-200, 1e-20, 1.0, 1e20, 1e200):
        F = norm._values(c * Y)
        Fd, d1, d2 = norm._derivative_rows(c * Y)
        xi = np.array([norm.legendre(c * y) for y in Y])
        pre, Fg, g = norm._dual_rows(xi)
        for i, y in enumerate(c * Y):
            d = norm.derivatives(y, order=2)
            assert F[i].tobytes() == np.float64(norm.value(y)).tobytes()
            if jets:
                assert Fd[i] == pytest.approx(d.F, rel=REL, abs=0.0)
                assert np.max(np.abs(d1[i] - d.d1)) <= REL * np.max(np.abs(d.d1))
                assert np.max(np.abs(d2[i] - d.d2)) <= REL * np.max(np.abs(d.d2))
            else:
                assert (Fd[i].tobytes(), d1[i].tobytes(), d2[i].tobytes()) == (
                    np.float64(d.F).tobytes(), d.d1.tobytes(), d.d2.tobytes())
            one = duality.legendre_inverse(norm, xi[i])
            if not angle:
                assert pre[i].tobytes() == one.tobytes()
            if norm.strategy != "fd":  # fd's L is not the closed form's inverse
                assert np.max(np.abs(pre[i] - y)) <= 1e-12 * np.max(np.abs(y))
            assert Fg[i] == pytest.approx(norm.value(pre[i]), rel=1e-12, abs=0.0)
            want = norm.derivatives(pre[i], order=2).d2
            assert np.max(np.abs(g[i] - want)) <= 1e-12 * np.max(np.abs(want))
    # a zero or non-finite row fails alone
    bad = np.zeros((4, n))
    bad[1, :2] = np.inf, 1.0
    bad[2, 0] = np.nan
    bad[3, :2] = 1.0, 0.5
    for rows in (norm._values(bad), norm._derivative_rows(bad)[0], norm._dual_rows(bad)[1]):
        assert np.isnan(rows[:3]).all() and np.isfinite(rows[3])


def test_a_randers_verify_builds_no_per_point_object(monkeypatch):
    # the verify of a Randers sphere, 3 levels of 64 points, keeps every
    # point's geometry and frame as rows of arrays: no stage builds a
    # PointGeometry or a HypersurfacePointFrame, which stay views on request
    norm, field, levels = scenario("sphere")
    built = {"geometry": 0, "frame": 0}
    for name, cls in (("geometry", calculus.PointGeometry), ("frame", hs.HypersurfacePointFrame)):
        def counting(self, *args, _init=cls.__init__, _name=name, **kwargs):
            built[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    report = iso.verify(norm, field, levels, count=64)
    assert sum(len(s.points) for s in report.samples) == 3 * 64 and report.witness is not None
    assert built == {"geometry": 0, "frame": 0}
    # a view on request is one of each
    assert report.samples[0].frames[5].geometry.fstar == report.samples[0].fstar[5]
    assert built == {"geometry": 1, "frame": 1}


def test_sampling_makes_no_one_point_field_call(monkeypatch):
    # a verify evaluates its field only through rows, the ladder walk of a
    # field without a degree included: with value, d1 and d2 raising, the
    # reparametrized Randers sphere (phi = 2t + t^2/2) and a custom sphere
    # potential, 3 levels of 64 points each, keep the verdicts and profile
    # nodes that the walk of one ray at a time gave, to 1e-12, and call the
    # custom callables no more often than it did
    randers = norms.RandersNorm([0.5, 0.0, 0.0])
    profile = norms.PolynomialProfile([0.0, 2.0, 0.5])
    calls = {"value": 0, "d1": 0, "d2": 0}

    def counted(name, fn):
        def wrapper(x):
            calls[name] += 1
            return fn(x)
        return wrapper

    custom = calculus.custom_field(3, counted("value", lambda x: 0.5 * randers.value(x) ** 2),
                                   counted("d1", randers.legendre),
                                   counted("d2", lambda x: randers.derivatives(x, order=2).d2))
    runs = [
        (calculus.reparametrized_field(calculus.sphere_potential(randers), profile),
         [profile.phi(t) for t in (0.5, 2.0, 4.5)],
         [[1.125, 2.4999999999999956], [6.0, 7.999999999999983], [19.125, 19.499999999999677]],
         [[1.125, 8.499999999999993], [6.0, 15.999999999999977], [19.125, 28.499999999999684]]),
        (custom, [0.5, 2.0, 4.5],
         [[0.5, 0.9999999999999999], [2.0, 1.9999999999999998], [4.5, 3.0]],
         [[0.5, 3.0], [2.0, 3.0], [4.5, 3.0]]),
    ]

    def one_point(self, x):
        raise AssertionError(f"one-point field call at x={x!r}")

    for name in ("value", "d1", "d2"):
        monkeypatch.setattr(calculus.ScalarField, name, one_point)
    for field, levels, a_nodes, b_nodes in runs:
        report = iso.verify(randers, field, levels, count=64)
        assert (report.transnormal_verdict, report.isoparametric_verdict) == ("yes", "yes")
        assert [len(s.points) for s in report.samples] == [64, 64, 64]
        for got, want in ((report.a_nodes, a_nodes), (report.b_nodes, b_nodes)):
            assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-12
    assert calls["value"] <= 17_513 and calls["d1"] <= 240 and calls["d2"] <= 240


def _sample_bits(sample) -> list:
    """Every array and number of a ``LevelSample``, its frames and their geometry."""
    out = [sample.t, sample.skipped] + [a.tobytes() for a in
                                        (sample.points, sample.fstar, sample.lap,
                                         sample.curvatures)]
    for fr in sample.frames:
        geo = fr.geometry
        out += [fr.groups, geo.m, geo.fstar, geo.lap, geo.lap_scale]
        out += [a.tobytes() for a in (fr.x, fr.normal, fr.tangent_basis, fr.hhat,
                                      fr.principal_curvatures, fr.eigenvectors, geo.df,
                                      geo.hess, geo.grad, geo.g)]
    return out


@pytest.mark.parametrize("case", CASES + FAMILY_CASES + ["quartic-cylinder"])
def test_levels_stacked_equal_the_per_level_loop_bit_for_bit(case):
    # every row is computed as on its own: the rays of all levels share one
    # evaluation of f, and their points one level_geometry and one
    # level_frames, with the bits of one sample_level per level
    norm, field, levels = scenario(case) if case in CASES else family_scenario(case)
    for seed in (0, 3):
        stacked = iso.sample_levels(norm, field, levels, 24, seed=seed)
        assert len(stacked) == len(levels)
        for t, sample in zip(levels, stacked):
            assert _sample_bits(sample) == _sample_bits(iso.sample_level(norm, field, t, 24,
                                                                         seed=seed))


def test_a_row_that_fails_the_cholesky_test_falls_back_alone(monkeypatch):
    # g made indefinite at one point of level 2.0 sends that row alone to
    # point_geometry: the other rows, of its level and of the others, keep
    # the bits of the stacked pass, so the levels stack as in the loop
    norm, field, levels = scenario("sphere")
    x0 = iso.sample_level(norm, field, 2.0, 24).points[7]
    df0 = field.d1(x0)
    dual_rows = norm._dual_rows

    def indefinite_at_x0(Xi):
        grad, fstar, g = dual_rows(Xi)
        g[np.linalg.norm(Xi - df0, axis=1) <= 1e-12 * np.linalg.norm(df0)] *= -1.0
        return grad, fstar, g

    calls = [0]
    one_point = calculus.point_geometry

    def counting(*args):
        calls[0] += 1
        return one_point(*args)

    monkeypatch.setattr(norm, "_dual_rows", indefinite_at_x0)
    monkeypatch.setattr(calculus, "point_geometry", counting)
    stacked = iso.sample_levels(norm, field, levels, 24)
    assert calls[0] == 1
    for t, sample in zip(levels, stacked):
        assert _sample_bits(sample) == _sample_bits(iso.sample_level(norm, field, t, 24))
    assert calls[0] == 2


def _outcome(fn):
    try:
        fn()
    except Exception as exc:
        return type(exc), str(exc)
    return None


def test_the_first_failing_level_raises_as_in_the_per_level_loop():
    # levels are checked in the given order: a range error, an unreached
    # level or a critical point on a level raises for the first level that
    # has one, whatever the later levels raise
    norm, sphere, _ = scenario("sphere")
    critical_sphere = near_critical(norm, sphere, 2.0, 5)[0]
    _, hyperplane, _ = scenario("hyperplane")
    hyperplane = dataclasses.replace(hyperplane, regular_range=(-1.0, 10.0))
    critical_plane = near_critical(norm, hyperplane, 2.0, 3, factor=0.0)[0]
    runs = [
        (critical_sphere, [0.5, 2.0, -1.0], CriticalPointOnLevel),
        (critical_sphere, [0.5, -1.0, 2.0], ValueError),
        (hyperplane, [1.0, 0.0, 20.0], LevelNotReached),
        (hyperplane, [1.0, 20.0, 0.0], ValueError),
        (critical_plane, [1.0, 2.0, 0.0], CriticalPointOnLevel),
        (critical_plane, [0.0, 2.0], LevelNotReached),
    ]
    for field, levels, error in runs:
        want = _outcome(lambda: [iso.sample_level(norm, field, t, 16) for t in levels])
        assert want is not None and want[0] is error, (levels, want)
        assert _outcome(lambda: iso.sample_levels(norm, field, levels, 16)) == want, levels
