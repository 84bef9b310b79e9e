"""The stacked level against the one-point path.

``sample_levels`` meets the rays of a field with a degree as whole arrays,
and computes the geometry and frames of all its levels as whole arrays, for
every norm family, strategy and field; ``sample_level`` is its call on one
level.  The arrays stay arrays: a ``PointGeometry`` or
``HypersurfacePointFrame`` is a one-row view, built only when asked for.
The one-point reference is ``_radial_root`` per ray and ``frame_at`` (one
``point_geometry``) per point.
"""

import dataclasses

import numpy as np
import pytest

from minkgeom import calculus, hypersurface as hs, isoparametric as iso, norms, sampling
from minkgeom.errors import CriticalPoint, CriticalPointOnLevel, LevelNotReached, MinkGeomError

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
    of the other families and strategies, and fields without rows."""
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
    # per-point d1 and d2 of fields without rows, meet ``frame_at``
    norm, field, levels = family_scenario(case)
    for t in levels:
        sample = iso.sample_level(norm, field, t, 16, seed=1)
        assert len(sample.points) == 16
        assert_matches_frame_at(norm, field, sample)


def near_critical(norm, field, t, i, factor=1e-12):
    """(field, x0): ``field`` with df times ``factor`` near x0, the i-th point
    sampled on level t, in its rows and in d1 alike, which puts a critical
    point within relative distance 1e-8 of x0 (at x0 for a factor 0)."""
    x0 = iso.sample_level(norm, field, t, 16).points[i]

    def near(X):
        X = np.atleast_2d(X)
        return np.linalg.norm(X - x0, axis=1) <= 1e-12 * np.linalg.norm(x0)

    def d1(x):
        return factor * field.d1_fn(x) if near(x)[0] else field.d1_fn(x)

    def rows(X, order):
        if order == 0:
            return field.rows(X, 0)
        df, hess = field.rows(X, 2)
        return np.where(near(X)[:, None], factor * df, df), hess

    return dataclasses.replace(field, d1_fn=d1, rows=rows), x0


def test_a_critical_row_raises_as_on_the_one_point_path():
    # the level raises the error of ``point_geometry`` at the near-critical
    # point, with the field's rows and without
    norm, field, _ = scenario("sphere")
    critical, x0 = near_critical(norm, field, 2.0, 5)
    with pytest.raises(CriticalPoint) as ref:
        calculus.point_geometry(norm, critical, x0)
    with pytest.raises(CriticalPointOnLevel) as info:
        iso.sample_level(norm, critical, 2.0, 16)
    assert str(info.value) == f"a sampled point on level 2.0 is critical: {ref.value}"
    with pytest.raises(CriticalPointOnLevel):
        iso.sample_level(norm, dataclasses.replace(critical, rows=None), 2.0, 16)


def test_a_degenerate_row_raises_as_on_the_one_point_path(monkeypatch):
    # |xbar| + b.x is not differentiable on the x3 axis, where a ray along
    # it meets the level: the level raises the error of ``point_geometry``
    # at that point, with the field's rows and without
    norm, field, _ = scenario("counterexample")
    directions = sampling.sphere_directions

    def with_the_axis(n, count, seed=0):
        dirs = directions(n, count, seed)
        dirs[0] = [0.0, 0.0, 1.0]
        return dirs

    monkeypatch.setattr(iso, "sphere_directions", with_the_axis)
    axis = np.array([0.0, 0.0, 1.0])
    with pytest.raises(MinkGeomError) as ref, np.errstate(all="ignore"):
        calculus.point_geometry(norm, field, iso._radial_root(field, field.anchor, axis, 1.0) * axis)
    for f in (field, dataclasses.replace(field, rows=None)):
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
        return sphere.d1_fn(x)

    field = calculus.custom_field(3, sphere.value_fn, d1_fn=d1, d2_fn=sphere.d2_fn)
    field = dataclasses.replace(field, degree=2, regular_range=(0.0, np.inf))
    with pytest.raises(ValueError, match="d1 undefined here"):
        calculus.point_geometry(randers, field, x0)
    with pytest.raises(ValueError, match="d1 undefined here"):
        iso.sample_level(randers, field, 2.0, 16)


def test_an_unreached_level_raises_as_on_the_one_point_path():
    # level 0 of a linear field passes through its anchor: no ray meets it,
    # nor its mirror, on the one-point path either
    norm, field, _ = scenario("hyperplane")
    for f in (field, dataclasses.replace(field, rows=None)):
        with pytest.raises(LevelNotReached, match="passes through the anchor"):
            iso.sample_level(norm, f, 0.0, 16)
    for d in sampling.sphere_directions(3, 16):
        assert iso._radial_root(field, field.anchor, d, 0.0) is None
        assert iso._radial_root(field, field.anchor, -d, 0.0) is None


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
    profile = norms.PolynomialProfile([1.0, 1.0, 0.1])
    return {
        "euclidean": norms.EuclideanNorm(3),
        "randers": randers,
        "scaled-randers": norms.ScaledNorm(randers, 1.7),
        "randers-taylor": norms.RandersNorm([0.3, -0.2, 0.4], strategy="taylor"),
        "quartic": norms.KthRootNorm(4, 3),
        # one row jet, and the angle of the Legendre inverse by Newton on all rows
        **{f"alpha-beta-n{n}": norms.AlphaBetaNorm(profile, -0.6, n) for n in (2, 3, 5)},
    }


@pytest.mark.parametrize("name", list(_rows_norms()))
def test_rows_match_the_one_point_services_at_every_scale(name):
    # each row is scaled by the rule of _as_vector, so rows of size 1e-200
    # and 1e200, whose squares leave the float range, agree like size 1
    norm = _rows_norms()[name]
    n = norm.dim
    rng = np.random.default_rng(5)
    Y = rng.choice([-1.0, 1.0], (8, n)) * rng.uniform(0.3, 1.0, (8, n))
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
