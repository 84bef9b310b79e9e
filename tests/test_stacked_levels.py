"""The stacked level against the one-point path.

``sample_levels`` meets the rays of a field with a degree as whole arrays,
and computes the geometry and frames of all its levels as whole arrays, for
every norm family, strategy and field; ``sample_level`` is its call on one
level.  The arrays stay arrays: the record of one point, ``geometry[i]`` or
``frames[i]``, is of the same class, built only when asked for.
The one-point reference is the closed form of one ray at a time (the
ladder walk of ``_radial_root`` on a field without a degree), ``frame_at``
(the ``level_geometry`` of one row) per point and the independent one-point
geometry ``oracles.point_geometry``.  A field is evaluated only through its
``rows``; ``value``, ``d1`` and ``d2`` are its one-row calls.
"""

import dataclasses
import re

import numpy as np
import pytest

from minkgeom import (calculus, duality, hypersurface as hs, isoparametric as iso, norms,
                      sampling)
from minkgeom.errors import (CriticalPoint, CriticalPointOnLevel, DegenerateMetric,
                             LevelNotReached, MinkGeomError, NotInDomain)

from . import oracles

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
    form from the one-point f(d) on a field with a degree, else the ladder
    walk of ``_radial_root`` on that one ray."""
    out = []
    for d in sampling.sphere_directions(field.dim, count, seed=seed):
        for ray in (d, -d):
            if field.degree is None:
                s = iso._radial_root(field, ray[None, :], t)[0]
            else:
                s = iso._degree_radii(field.value(ray), t, field.degree)
            if not np.isnan(s):
                break
        x = s * ray
        if not np.isnan(s) and abs(field.value(x) - t) <= iso.LEVEL_RESIDUAL * abs(t):
            out.append(x)
    return np.array(out)


def per_row(field):
    """``field`` as a custom field, whose ``rows`` calls the one-point
    ``value``, ``d1`` and ``d2`` at one row at a time, with the same degree
    and regular range."""
    custom = calculus.custom_field(field.dim, field.value, field.d1, field.d2)
    return dataclasses.replace(custom, degree=field.degree, regular_range=field.regular_range)


def assert_close(got, want, scale=None):
    """|got - want| <= REL times the largest |want| (or ``scale``)."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    scale = np.max(np.abs(want)) if scale is None else scale
    assert np.max(np.abs(got - want), initial=0.0) <= REL * scale, (got, want)


def assert_matches_frame_at(norm, field, sample):
    """The level's arrays and each one-row view ``sample.frames[i]`` agree
    to REL with ``frame_at`` at the point (the curvatures and their group
    multiplicities, the normal and every field of the frame), and with the
    one-point ``oracles.point_geometry`` (F*, Delta f, its term scale and
    every field of the point geometry)."""
    geometry, frames = sample.frames.geometry, sample.frames
    for i, x in enumerate(sample.points):
        ref = hs.frame_at(norm, field, x)
        geo = oracles.point_geometry(norm, field, x)
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
        assert isinstance(view, hs.LevelFrames)
        assert np.array_equal(view.geometry.x, x)
        for name in ("normal", "tangent_basis"):
            assert_close(getattr(view, name), getattr(ref, name))
        assert_close(view.hhat, ref.hhat, scale=kscale)
        assert_close(view.principal_curvatures, k_ref, scale=kscale)
        assert [m for _, m in view.groups] == [m for _, m in ref.groups]
        assert_close([k for k, _ in view.groups], [k for k, _ in ref.groups], scale=kscale)
        assert isinstance(view.geometry, calculus.LevelGeometry)
        assert view.geometry.m == geo.m and view.geometry.norm is norm
        for name in ("fstar", "lap", "lap_scale", "df", "hess", "grad"):
            assert_close(getattr(view.geometry, name), getattr(geo, name))
            assert_close(getattr(ref.geometry, name), getattr(geo, name))
        # a reduced point keeps block-diag(its m x m g, I): the flat complement is Euclidean
        m = geo.m
        for g in (view.geometry.g, ref.geometry.g):
            assert_close(g[:m, :m], geo.g)
            assert not g[:m, m:].any() and not g[m:, :m].any()
            assert np.array_equal(g[m:, m:], np.eye(len(g) - m))


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
        df = np.where(near[:, None], factor * df, df)
        return df if order == 1 else (df, hess)

    return dataclasses.replace(field, rows=rows), x0


def test_a_critical_row_raises_as_on_the_one_point_path():
    # the level raises the error of the one-point ``gradient`` at the
    # near-critical point, as the one-row ``level_geometry`` does, with the
    # field's rows and with its one-point calls row by row
    norm, field, _ = scenario("sphere")
    critical, x0 = near_critical(norm, field, 2.0, 5)
    with pytest.raises(CriticalPoint) as ref:
        calculus.gradient(norm, critical, x0)
    assert str(ref.value) == (f"df vanishes at x={x0!r}; downstream formulas divide by "
                              f"F(grad f)")
    with pytest.raises(CriticalPoint) as one:
        calculus.level_geometry(norm, critical, [x0])
    assert str(one.value) == str(ref.value)
    with pytest.raises(CriticalPointOnLevel) as info:
        iso.sample_level(norm, critical, 2.0, 16)
    assert str(info.value) == f"a sampled point on level 2.0 is critical: {ref.value}"
    with pytest.raises(CriticalPointOnLevel):
        iso.sample_level(norm, per_row(critical), 2.0, 16)


def test_a_degenerate_row_raises_as_on_the_one_point_path(monkeypatch):
    # |xbar| + b.x is not differentiable on the x3 axis, where a ray along
    # it meets the level: the level raises NotInDomain naming that point, as
    # the one-point ``gradient`` and the one-row ``level_geometry`` do, with
    # the field's rows and with its one-point calls
    norm, field, _ = scenario("counterexample")
    directions = sampling.sphere_directions

    def with_the_axis(n, count, seed=0):
        dirs = directions(n, count, seed)
        dirs[0] = [0.0, 0.0, 1.0]
        return dirs

    monkeypatch.setattr(iso, "sphere_directions", with_the_axis)
    axis = np.array([0.0, 0.0, 1.0])
    s = iso._degree_radii(field.value(axis), 1.0, field.degree)
    with pytest.raises(NotInDomain) as ref, np.errstate(all="ignore"):
        calculus.gradient(norm, field, s * axis)
    assert str(ref.value) == f"the field is not defined at x={s * axis!r}"
    with pytest.raises(NotInDomain) as one, np.errstate(all="ignore"):
        calculus.level_geometry(norm, field, [s * axis])
    assert str(one.value) == str(ref.value)
    for f in (field, per_row(field)):
        with pytest.raises(MinkGeomError) as info, np.errstate(all="ignore"):
            iso.sample_level(norm, f, 1.0, 16)
        assert type(info.value) is type(ref.value) and str(info.value) == str(ref.value)


def test_an_error_of_a_custom_derivative_raises_as_on_the_one_point_path():
    # a custom d1 may raise any error: the level raises it at its point, as
    # the one-row ``level_geometry`` there does
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
        calculus.level_geometry(randers, field, [x0])
    with pytest.raises(ValueError, match="d1 undefined here"):
        iso.sample_level(randers, field, 2.0, 16)


def test_the_custom_field_error_contract():
    # a custom callable's own error comes out of rows, the one-point calls,
    # a one-row level_geometry and sample_level unchanged, even where a critical row
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
        calculus.level_geometry(randers, raising, [xc])
    for call in (lambda: raising.rows(points, 2), lambda: raising.d1(x0),
                 lambda: raising.d2(x0), lambda: calculus.level_geometry(randers, raising, [x0]),
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
                 lambda x: calculus.level_geometry(randers, failing, [x])):
        with pytest.raises(NotInDomain, match=re.escape(f"not defined at x={x0!r}")):
            call(x0)
    sample = iso.sample_level(randers, failing, 2.0, 16)
    assert sample.skipped == 1 and np.array_equal(sample.points, points[~nan])


def test_an_unreached_level_raises_as_on_the_one_point_path():
    # level 0 of a linear field passes through the origin: no ray meets it,
    # nor its mirror, in closed form or on the ladder
    norm, field, _ = scenario("hyperplane")
    for f in (field, per_row(field)):
        with pytest.raises(LevelNotReached, match="passes through the origin"):
            iso.sample_level(norm, f, 0.0, 16)
    dirs = sampling.sphere_directions(3, 16)
    for rays in (dirs, -dirs):
        assert np.isnan(iso._degree_radii(field.rows(rays, 0), 0.0, field.degree)).all()
        assert np.isnan(iso._radial_root(field, rays, 0.0)).all()


@pytest.mark.parametrize("case", CASES + FAMILY_CASES + ["quartic-cylinder"])
def test_point_geometry_calls_per_point(case, monkeypatch):
    # a point's geometry is computed once, as a row of one stacked pass: each
    # sample_level makes one ``_dual_rows`` call for all its points, and the
    # k-th root cylinder, whose g is singular at every gradient, one more,
    # of the subspace dual its rows reduce to; no stage calls the one-point
    # ``legendre_inverse`` or ``fundamental_tensor``
    norm, field, levels = scenario(case) if case in CASES else family_scenario(case)
    calls = {"rows": 0, "one-point": 0}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(norms.MinkowskiNorm, "_dual_rows",
                        counting("rows", norms.MinkowskiNorm._dual_rows))
    monkeypatch.setattr(duality, "legendre_inverse",
                        counting("one-point", duality.legendre_inverse))
    monkeypatch.setattr(norms.MinkowskiNorm, "fundamental_tensor",
                        counting("one-point", norms.MinkowskiNorm.fundamental_tensor))
    for t in levels:
        before = calls["rows"]
        assert len(iso.sample_level(norm, field, t, 16).points) == 16
        assert calls["rows"] - before == (2 if case == "quartic-cylinder" else 1)
    assert calls["one-point"] == 0


class _QuarticWithLine(norms.KthRootNorm):
    """A k-th root norm whose subspace dual on the first coordinate exists:
    the k-th root norm on R^1, |y|, which the constructors refuse (dim < 2)
    but whose bodies hold at any dimension."""

    def _subspace_dual(self, m):
        if m > 1:
            return super()._subspace_dual(m)
        line = norms.KthRootNorm(self.k, 2)
        line.dim, line._eye = 1, np.eye(1)
        return line


def mixed_support_field(norm):
    """A field on R^3 whose rows (orders 1 and 2) take by x3 the potential of the
    subspace dual on the first m coordinates: the sphere potential (m = 3)
    where x3 > 1, the cylinder potential on m = 2 where 0 < x3 <= 1 and on
    m = 1 elsewhere."""
    fields = {1: calculus.cylinder_potential(norm, 1), 2: calculus.cylinder_potential(norm, 2),
              3: calculus.sphere_potential(norm)}

    def rows(X, order):
        assert order >= 1
        which = np.where(X[:, 2] > 1.0, 3, np.where(X[:, 2] > 0.0, 2, 1))
        df, hess = np.zeros(X.shape), np.zeros((len(X), 3, 3))
        for m, f in fields.items():
            df[which == m], hess[which == m] = f.rows(X[which == m], 2)
        return df if order == 1 else (df, hess)

    return dataclasses.replace(fields[3], tag="mixed", rows=rows)


def test_rows_of_every_geometry_dimension_stack_in_one_call(monkeypatch):
    # rows whose df and D^2 f live on the first 1, 2 and 3 coordinates of a
    # quartic norm on R^3, interleaved in one level_geometry: one _dual_rows
    # for all rows and one per reduced dimension; each row has the geometry
    # of the one-point oracle, the bits of its one-row call, and
    # block-diag(its m x m g, I)
    norm = _QuarticWithLine(4, 3)
    field = mixed_support_field(norm)
    rng = np.random.default_rng(11)
    X = rng.uniform(0.4, 1.2, (9, 3)) * rng.choice([-1.0, 1.0], (9, 3))
    X[:, 2] = np.tile([1.5, 0.5, -0.5], 3)
    calls = [0]
    dual_rows = norms.MinkowskiNorm._dual_rows

    def counting(self, Xi):
        calls[0] += 1
        return dual_rows(self, Xi)

    monkeypatch.setattr(norms.MinkowskiNorm, "_dual_rows", counting)
    geometry = calculus.level_geometry(norm, field, X)
    assert calls[0] == 3
    assert geometry.m.tolist() == [3, 2, 1] * 3
    for i, x in enumerate(X):
        view, ref = geometry[i], oracles.point_geometry(norm, field, x)
        m = view.m
        assert m == ref.m and ref.norm.dim == m and view.norm is norm
        for name in ("fstar", "lap", "lap_scale", "df", "hess", "grad"):
            assert_close(getattr(view, name), getattr(ref, name))
        assert_close(view.g[:m, :m], ref.g)
        assert not geometry.g[i, :m, m:].any() and not geometry.g[i, m:, :m].any()
        assert np.array_equal(geometry.g[i, m:, m:], np.eye(3 - m))
        one = calculus.level_geometry(norm, field, [x])
        for name in ("grad", "fstar", "g", "lap", "lap_scale", "m"):
            assert getattr(one, name).tobytes() == getattr(geometry, name)[i:i + 1].tobytes()


def test_one_frame_stack_over_rows_of_every_geometry_dimension():
    # one level_frames over interleaved rows of dimension 3, 2 and 1, whose
    # g is block-diag(gtilde, I): an m = 1 row is framed by (e2, e3) with
    # curvatures 0, and an m = 2 row by the frame of its 2 x 2 block with e3
    # appended, bit for bit
    norm = _QuarticWithLine(4, 3)
    field = mixed_support_field(norm)
    rng = np.random.default_rng(13)
    X = rng.uniform(0.4, 1.2, (9, 3)) * rng.choice([-1.0, 1.0], (9, 3))
    X[:, 2] = np.tile([1.5, 0.5, -0.5], 3)
    frames = hs.level_frames(norm, field, calculus.level_geometry(norm, field, X))
    geometry, e = frames.geometry, np.eye(3)
    assert geometry.m.tolist() == [3, 2, 1] * 3
    for i in np.flatnonzero(geometry.m == 1):
        assert np.array_equal(frames.tangent_basis[i], e[1:])
        assert not frames.principal_curvatures[i].any()
    for i in np.flatnonzero(geometry.m == 2):
        block = hs.orthonormal_basis(geometry.g[i, None, :2, :2], frames.normal[i, None, :2])[0]
        want = np.vstack([np.pad(block, ((0, 0), (0, 1))), e[2]])
        assert frames.tangent_basis[i].tobytes() == want.tobytes()


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
        pre, Fg, g = norm._dual_rows(xi)[:3]
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
    if norm.strategy == "fd":
        # the fd stencil is one body at orders 3 and 4 too: rows of y / s give
        # each point's d3 and d4, of degrees -1 and -2 in s
        for c in (1e-200, 1.0, 1e200):
            rows, s = norms._as_rows(c * Y[:2], norm)
            s = np.ones(2) if s is None else s  # no scale: every row in the window
            d = norm._derivatives(rows, 4)
            with np.errstate(over="ignore"):
                for i, y in enumerate(c * Y[:2]):
                    one = norm.derivatives(y, order=4)
                    assert (d.d3[i] / s[i]).tobytes() == one.d3.tobytes()
                    assert (d.d4[i] / s[i] / s[i]).tobytes() == one.d4.tobytes()
    # a zero or non-finite row fails alone
    bad = np.zeros((4, n))
    bad[1, :2] = np.inf, 1.0
    bad[2, 0] = np.nan
    bad[3, :2] = 1.0, 0.5
    for rows in (norm._values(bad), norm._derivative_rows(bad)[0], norm._dual_rows(bad)[1]):
        assert np.isnan(rows[:3]).all() and np.isfinite(rows[3])


@pytest.mark.parametrize("name", list(_rows_norms()))
def test_an_empty_stack_gives_empty_results(name):
    # zero rows give every row service, the geometry and the frames at their
    # shapes with no row, as N rows give them with N
    norm = _rows_norms()[name]
    n = norm.dim
    E = np.zeros((0, n))
    assert norm._values(E).shape == norm._dual_values(E).shape == (0,)
    for got, want in ((norm._derivative_rows(E, 1), [(0,), (0, n), ()]),
                      (norm._derivative_rows(E, 2), [(0,), (0, n), (0, n, n)]),
                      (norm._dual_rows(E), [(0, n), (0,), (0, n, n), (0, n)])):
        assert [np.shape(a) for a in got] == want
    assert norm._legendre_inverse(E).shape == (0, n)
    assert norm._dual_fundamental_tensor(E, np.zeros((0, n, n))).shape == (0, n, n)
    geometry = calculus.level_geometry(norm, calculus.sphere_potential(norm), E)
    assert len(geometry) == 0 and geometry.g.shape == (0, n, n) and geometry.m.shape == (0,)
    frames = hs.level_frames(norm, calculus.sphere_potential(norm), geometry)
    assert frames.principal_curvatures.shape == (0, n - 1)
    assert iso.sample_levels(norm, calculus.sphere_potential(norm), [], 8) == []


@pytest.mark.parametrize("count", [1, 200])
def test_fd_rows_evaluate_each_stencil_offset_once(count):
    # one _value call on all rows per offset: 12 for d1 (2 steps x 6
    # offsets), 2 x 19 for d2 and one for F, whatever the number of rows
    norm = norms.KthRootNorm(4, 3, strategy="fd")
    shapes = []
    value = norm._value

    def counted(y):
        shapes.append(y.shape)
        return value(y)

    norm._value = counted
    Y = np.random.default_rng(3).standard_normal((count, 3))
    norm._derivative_rows(Y)
    assert shapes == [(count, 3)] * 51


def test_a_randers_verify_builds_no_per_point_object(monkeypatch):
    # the verify of a Randers sphere, 3 levels of 64 points, keeps every
    # point's geometry and frame as rows of arrays: no stage builds a level's
    # record or indexes one by a point, and each is built only on request
    norm, field, levels = scenario("sphere")
    built = []
    getitem = calculus.RowRecord.__getitem__

    def counting(self, i):
        built.append((type(self).__name__, isinstance(i, (int, np.integer))))
        return getitem(self, i)

    monkeypatch.setattr(calculus.RowRecord, "__getitem__", counting)
    report = iso.verify(norm, field, levels, count=64)
    assert sum(len(s.points) for s in report.samples) == 3 * 64 and report.witness is not None
    assert built == []
    # a level's frames on request are one slice of the stack, built once, and
    # a point's frame one int index of them and of their geometry
    frames = report.samples[0].frames
    assert report.samples[0].frames is frames
    assert built == [("LevelFrames", False), ("LevelGeometry", False)]
    assert frames[5].geometry.fstar == report.samples[0].fstar[5]
    assert built[2:] == [("LevelFrames", True), ("LevelGeometry", True)]


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
    """Every array and number of a ``LevelSample``, its frames (curvatures,
    no principal directions) and their geometry."""
    out = [sample.t, sample.skipped] + [a.tobytes() for a in
                                        (sample.points, sample.fstar, sample.lap,
                                         sample.curvatures)]
    for fr in sample.frames:
        geo = fr.geometry
        out += [fr.groups, geo.m, geo.fstar, geo.lap, geo.lap_scale]
        out += [a.tobytes() for a in (geo.x, fr.normal, fr.tangent_basis, fr.hhat,
                                      fr.principal_curvatures, geo.df, geo.hess, geo.grad,
                                      geo.g)]
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


@pytest.mark.parametrize("fault", ["negative", "indefinite"])
def test_a_row_that_fails_the_cholesky_test_raises_naming_its_point(fault, monkeypatch):
    # g at one point of level 2.0 made negative definite (a diagonal entry
    # <= 0) or indefinite with a positive diagonal: its df and D^2 f are
    # supported on every coordinate, so no subspace dual reduces it, and the
    # level raises DegenerateMetric naming that point; the other levels keep
    # the bits of their unpatched samples, and in one level_geometry call the
    # first failing row in row order raises, this one or a critical one
    norm, field, levels = scenario("sphere")
    points = iso.sample_level(norm, field, 2.0, 24).points
    x0 = points[7]
    df0 = field.d1(x0)
    clean = {t: _sample_bits(iso.sample_level(norm, field, t, 24)) for t in levels}
    critical, xc = near_critical(norm, field, 2.0, 5)
    dual_rows = norm._dual_rows

    def faulty_at_x0(Xi):
        grad, fstar, g, windowed = dual_rows(Xi)
        at = np.linalg.norm(Xi - df0, axis=1) <= 1e-12 * np.linalg.norm(df0)
        if fault == "negative":
            g[at] *= -1.0
        else:
            g[at, 0, 1] = g[at, 1, 0] = 10.0 * np.sqrt(g[at, 0, 0] * g[at, 1, 1])
        return grad, fstar, g, windowed

    monkeypatch.setattr(norm, "_dual_rows", faulty_at_x0)
    message = re.escape(f"at x={x0!r}")
    for run in (lambda: iso.sample_levels(norm, field, levels, 24),
                lambda: iso.sample_level(norm, field, 2.0, 24),
                lambda: calculus.level_geometry(norm, field, points)):
        with pytest.raises(DegenerateMetric, match=message):
            run()
    for t in (0.5, 4.5):
        assert _sample_bits(iso.sample_level(norm, field, t, 24)) == clean[t]
    with pytest.raises(DegenerateMetric, match=message):
        calculus.level_geometry(norm, critical, np.array([points[0], x0, xc]))
    with pytest.raises(CriticalPoint, match=re.escape(f"at x={xc!r}")):
        calculus.level_geometry(norm, critical, np.array([points[0], xc, x0]))


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



# -- each row service selects rows only when one is exceptional ----------------
# When every row passes, a row service works on the arrays themselves: no
# scale, mask, gather or masked store.  A stack with one exceptional row takes
# the selecting path, and each of its rows keeps the bits it has on its own,
# where it takes the other.  Levels of unequal sizes are test_level_table's.


@pytest.mark.parametrize("name", ["randers", "quartic", "alpha-beta"])
def test_a_row_out_of_the_window_leaves_the_other_rows_their_bits(name):
    norm = {"randers": norms.RandersNorm([0.3, -0.2, 0.4]), "quartic": norms.KthRootNorm(4, 3),
            "alpha-beta": norms.AlphaBetaNorm(norms.PolynomialProfile([1.0, 1.0, 0.1]), -0.6,
                                              3)}[name]
    Y = np.random.default_rng(5).standard_normal((6, 3))
    Y[2] *= 1e100  # scaled by _as_rows; the other rows are not

    def services(Y):
        return [norm._values(Y), *norm._derivative_rows(Y), *norm._dual_rows(Y),
                norm._dual_values(Y), duality.legendre_inverse_newton(norm, Y)]

    assert norms._as_rows(Y, norm)[1] is not None and norms._as_rows(Y[:1], norm)[1] is None
    stacked = services(Y)
    for i in range(len(Y)):
        for got, want in zip(stacked, services(Y[i:i + 1])):
            assert got[i:i + 1].tobytes() == want.tobytes()


def test_a_subspace_dual_row_leaves_the_other_rows_their_bits():
    # quartic sphere rows and one cylinder row, whose g at grad f is singular:
    # the stack's _dual_geometry keeps the other rows by a mask, and
    # level_frames builds their frames by dimension
    norm = _QuarticWithLine(4, 3)
    field = mixed_support_field(norm)
    rng = np.random.default_rng(12)
    X = rng.uniform(0.4, 1.2, (6, 3)) * rng.choice([-1.0, 1.0], (6, 3))
    X[:, 2] = [1.5, 1.5, 0.5, 1.5, 1.5, 1.5]

    def frames_of(X):
        frames = hs.level_frames(norm, field, calculus.level_geometry(norm, field, X))
        geo = frames.geometry
        return [geo.grad, geo.fstar, geo.g, geo.lap, geo.lap_scale, geo.m, frames.normal,
                frames.tangent_basis, frames.hhat, frames.principal_curvatures, frames.breaks]

    stacked = frames_of(X)
    assert stacked[5].tolist() == [3, 3, 2, 3, 3, 3]
    for i in range(len(X)):
        for got, want in zip(stacked, frames_of(X[i:i + 1])):
            assert got[i:i + 1].tobytes() == want.tobytes()


def bent_field():
    """A field that declares degree 2 but is 0.5 |x|^2 only where x_1 <= 0.9 |x|:
    the closed-form radius misses the level elsewhere, and the residual check
    rejects the point."""
    def rows(X, order):
        r = np.sqrt(np.vecdot(X, X))
        return 0.5 * r * r + np.maximum(X[:, 0] - 0.9 * r, 0.0) ** 3

    return calculus.ScalarField(dim=3, tag="bent", rows=rows, degree=2)


@pytest.mark.parametrize("case", ["mirrored ray", "rejected point"])
def test_the_level_points_of_each_ray_are_its_own(case):
    # the stack's points are those of each direction on its own, by level and
    # then by direction; a direction alone that meets and passes every level
    # takes the path with no gathers
    field = calculus.linear_field([1.0, 2.0, 0.5]) if case == "mirrored ray" else bent_field()
    dirs, levels = sampling.sphere_directions(3, 64, seed=0), [0.5, 2.0]
    points, level = iso._level_points(field, dirs, levels)
    alone = [iso._level_points(field, dirs[i:i + 1], levels) for i in range(len(dirs))]
    if case == "mirrored ray":
        assert (np.vecdot(points, np.tile(dirs, (2, 1))) < 0.0).any()
    else:
        assert 0 < len(points) < 2 * len(dirs)
    want = [(p[lv == j], lv[lv == j]) for j in range(len(levels)) for p, lv in alone]
    assert points.tobytes() == np.concatenate([p for p, _ in want]).tobytes()
    assert level.tolist() == np.concatenate([lv for _, lv in want]).tolist()
