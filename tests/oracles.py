"""Oracles of the tests: sampled grids and closed-form residuals.

``grid_validate`` samples F and g on a sphere lattice, independent of the
alpha-beta constructor's exact criterion it checks.  The sup oracles use
only norm values (and, for the subspace dual, F* values) on a sphere
lattice, refined by Nelder-Mead, so they are independent of the Legendre
machinery they check.  They need scipy, which the package does not;
``demos/02_legendre_duality.py`` loads this file by path.  The Cartan
tensors, the trace residual of a frame, the Randers cylinder residual and
the one-point geometry ``point_geometry`` are read only by the tests.  The
per-level verify tail (``level_stats`` and the functions it calls, and
``randers_witness``) is the loop over levels that ``isoparametric._level_table``
and ``_randers_witness`` replace, kept as their reference.
"""

import math
from collections import Counter
from dataclasses import dataclass, fields, replace
from types import SimpleNamespace

import numpy as np
from scipy.optimize import minimize

from minkgeom.calculus import RowRecord
from minkgeom.duality import dual_norm, legendre_inverse, subspace_dual
from minkgeom.errors import (BadDimension, DegenerateMetric, MinkGeomError, NoConvergence,
                             NotInDomain, ZeroCovector)
from minkgeom.isoparametric import WITNESS_POINTS, _profile_slopes
from minkgeom.norms import AlphaBetaNorm, MinkowskiNorm, RandersNorm, _as_vector
from minkgeom.randers import randers_isoparametric_residual
from minkgeom.sampling import sphere_directions


@dataclass(frozen=True)
class CartanData:
    """Cartan tensor C_ijk and its y-derivative Ccal_ijkl at a direction."""

    C: np.ndarray
    Ccal: np.ndarray


def cartan_tensors(norm: MinkowskiNorm, y) -> CartanData:
    """Cartan tensor and its derivative, C = G_ijk/2 and Ccal = G_ijkl/2."""
    d = norm.derivatives(y, order=4)
    return CartanData(C=0.5 * d.d3, Ccal=0.5 * d.d4)


def mean_curvature_residual(frame) -> float:
    """| F(grad f) * Hhat + sum_a D^2 f(e_a, e_a) | of a hypersurface frame,
    which must vanish."""
    hess = frame.geometry.hess
    faa = float(sum(e @ hess @ e for e in frame.tangent_basis))
    return abs(frame.geometry.fstar * float(np.sum(frame.principal_curvatures)) + faa)


def point_geometry(norm: MinkowskiNorm, field, x) -> SimpleNamespace:
    """The geometry of ``field`` at one regular point x, the reference of
    ``calculus.level_geometry``, from the one-point public services, as a
    plain record: x, norm, m, df, hess, grad, fstar, g, lap and lap_scale.

    df and D^2 f are ``field.d1`` and ``field.d2``, grad f is
    ``legendre_inverse`` of df, g is ``fundamental_tensor`` there (which
    raises DegenerateMetric where the Cholesky test fails), F*(df) = F(grad f)
    and Delta f = tr(g^{-1} D^2 f) with ``np.linalg.inv``.  Where g fails
    and df and D^2 f vanish off a coordinate prefix of length m < n, each
    to 1e-14 of its largest entry, the geometry is that of
    ``subspace_dual(norm, m)`` on the first m coordinates, when the Legendre
    map of F takes the padded gradient back to df to 1e-8; otherwise the
    first error is raised.  The point is not tested for being critical.
    """
    x = np.asarray(x, dtype=float)
    df, hess = field.d1(x), field.d2(x)
    n = norm.dim
    try:
        return _geometry_in(norm, n, x, df, hess)
    except (np.linalg.LinAlgError, DegenerateMetric, NoConvergence) as exc:
        ah = abs(hess)
        carried = ((abs(df) > 1e-14 * abs(df).max())
                   | (np.maximum(ah.max(axis=0), ah.max(axis=1)) > 1e-14 * max(ah.max(), 1e-300)))
        m = max(1, int(np.flatnonzero(carried).max(initial=0)) + 1)
        if m == n:
            raise
        try:
            geo = _geometry_in(subspace_dual(norm, m), m, x, df, hess)
        except MinkGeomError:
            raise exc
        if np.max(np.abs(norm.legendre(geo.grad) - df)) > 1e-8 * np.max(np.abs(df)):
            raise exc  # L does not preserve the subspace; the reduction is invalid
        return geo


def _geometry_in(norm: MinkowskiNorm, m: int, x, df, hess) -> SimpleNamespace:
    """``point_geometry`` in ``norm`` on the first m coordinates."""
    grad_m = legendre_inverse(norm, df[:m])
    g = norm.fundamental_tensor(grad_m)
    grad = np.zeros(df.size)
    grad[:m] = grad_m
    ginv, h = np.linalg.inv(g).ravel(), hess[:m, :m].ravel()
    return SimpleNamespace(
        x=x, norm=norm, m=m, df=df, hess=hess, grad=grad, fstar=norm.value(grad_m), g=g,
        lap=float(ginv.dot(h)), lap_scale=math.hypot(*ginv.tolist()) * math.hypot(*h.tolist()))


def cylinder_surface_residual(norm: RandersNorm, m: int, r: float, x,
                              reverse: bool = False) -> float:
    """sqrt(lam + bbar^2)|xbar| +- beta(xbar) - r at x (zero on the cylinder).

    The cylinder is the level +-r^2/2 of ``calculus.cylinder_potential``;
    NotInDomain for a norm other than Randers.
    """
    if not isinstance(norm, RandersNorm):
        raise NotInDomain("requires a Randers norm with Euclidean alpha")
    x = np.asarray(x, dtype=float)
    sign = -1.0 if reverse else 1.0
    return (norm.subspace_scale(m) * float(np.linalg.norm(x[:m]))
            + sign * float(norm.b[:m] @ x[:m]) - r)


def grid_validate(norm: MinkowskiNorm, count: int | None = None):
    """Falsification pass: F > 0 and g positive definite on a sphere grid of
    ``2 ** max(8, n + 4)`` directions by default, read through one ``_values``
    and one ``_derivative_rows``; the error names the first failing direction
    in grid order."""
    n = norm.dim
    if count is None:
        count = 2 ** max(8, n + 4)
    dirs = sphere_directions(n, count, seed=0)
    positive = norm._values(dirs) > 0.0
    g = norm._derivative_rows(dirs)[2]
    try:
        np.linalg.cholesky(g[positive])
        definite = positive
    except np.linalg.LinAlgError:
        definite = np.array([p and _cholesky_error(gi) is None for p, gi in zip(positive, g)])
    if definite.all():
        return
    i = int(np.argmin(definite))
    u = dirs[i]
    if not positive[i]:
        raise NotInDomain(f"F <= 0 at sampled direction {u!r}")
    raise DegenerateMetric(
        f"fundamental tensor not positive definite at direction {u!r}"
    ) from _cholesky_error(g[i])


def _cholesky_error(g):
    """The LinAlgError of the Cholesky factorization of g, or None."""
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError as exc:
        return exc
    return None


class _Unchecked(AlphaBetaNorm):
    def _check_profile(self):
        pass


def unchecked_alpha_beta(profile, b: float, n: int) -> AlphaBetaNorm:
    """The alpha-beta norm without the constructor's validity criterion, so
    that the grid and the tests can look at the norms the criterion rejects."""
    return _Unchecked(profile, b, n)


def dual_norm_grid_sup(norm: MinkowskiNorm, xi, count: int = 10_000) -> float:
    """Grid-maximization oracle for F*: max of xi(u)/F(u) over a sphere lattice.

    Independent of the Legendre machinery (uses only norm values); local
    Nelder-Mead refinement sharpens the best grid direction.  F* is
    1-homogeneous: the sup is taken at xi / s and scaled back by s.
    """
    xi, s = _as_vector(xi, norm, ZeroCovector)
    dirs = sphere_directions(norm.dim, count, seed=0)
    ratios = dirs @ xi / np.array([norm.value(u) for u in dirs])
    best = dirs[int(np.argmax(ratios))]

    def neg_ratio(u):
        nrm = np.linalg.norm(u)
        if nrm < 1e-12:
            return np.inf
        return -float(u @ xi) / norm.value(u)

    out = minimize(neg_ratio, best, method="Nelder-Mead",
                   options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 4000})
    return s * float(-out.fun)


def subspace_dual_sup(norm: MinkowskiNorm, m: int, ybars, count: int = 10_000) -> np.ndarray:
    """Oracle for Ftilde at each row of ``ybars`` (shape (k, m)): the sup of
    xibar(ybar)/F*(xibar) over one Vbar* grid of F* values, refined per row
    by Nelder-Mead.  Returns the k values."""
    ybars = np.asarray(ybars, dtype=float)
    if ybars.ndim != 2 or ybars.shape[1] != m:
        raise BadDimension(f"expected rows of length {m}, got shape {ybars.shape}")
    dirs = sphere_directions(m, count, seed=0) if m > 1 else np.array([[1.0], [-1.0]])

    def fstar(u):
        xi = np.zeros(norm.dim)
        xi[:m] = u
        return dual_norm(norm, xi)

    fstars = [fstar(u) for u in dirs]
    out = np.empty(len(ybars))
    for row, ybar in enumerate(ybars):
        vals = [float(u @ ybar) / fs for u, fs in zip(dirs, fstars)]
        best = dirs[int(np.argmax(vals))]

        def neg(u):
            if np.linalg.norm(u) < 1e-12:
                return np.inf
            return -float(u @ ybar) / fstar(u)

        res = minimize(neg, best, method="Nelder-Mead",
                       options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 4000})
        out[row] = -res.fun
    return out


# -- the per-level verify tail ------------------------------------------------------


def level_stats(samples) -> tuple:
    """(stats, worst_f, worst_lap, worst_curv, a_nodes, b_nodes, structure) of
    ``isoparametric.verify`` on ``samples``, one level at a time."""
    stats = []
    worst_f = worst_lap = worst_curv = 0.0
    for s in samples:
        fscale, lscale, kscale = level_scales(s)
        st = {
            "level": s.t,
            "points": len(s.points),
            "skipped": s.skipped,
            "fstar_mean": float(s.fstar.mean()),
            "fstar_spread": float(s.fstar.max() - s.fstar.min()),
            "fstar_cv": _relative(float(s.fstar.std()), fscale),
            "lap_mean": float(s.lap.mean()),
            "lap_spread": float(s.lap.max() - s.lap.min()),
            "lap_cv": _relative(float(s.lap.std()), lscale),
            "curvature_groups": [list(g) for g in modal_groups(s)],
            "curvature_spread": list(s.curvatures.max(axis=0) - s.curvatures.min(axis=0)),
        }
        stats.append(st)
        worst_f = max(worst_f, _relative(st["fstar_spread"], fscale))
        worst_lap = max(worst_lap, _relative(st["lap_spread"], lscale))
        worst_curv = max(worst_curv, _relative(float(np.max(st["curvature_spread"])), kscale))
    a_nodes = np.array(sorted((s.t, float(s.fstar.mean())) for s in samples))
    b_nodes = np.array(sorted((s.t, float(s.lap.mean())) for s in samples))
    return stats, worst_f, worst_lap, worst_curv, a_nodes, b_nodes, modal_structure(samples)


def level_scales(sample) -> tuple:
    """The scales of F*(df), Delta f and the curvatures on one level: |mean F*|;
    max(|mean Delta f|, the mean ``lap_scale`` of its points), so that a Delta f
    that vanishes on the level is measured against its terms; max |kappa|."""
    terms = float(np.mean(sample.frames.geometry.lap_scale))
    return (abs(float(sample.fstar.mean())), max(abs(float(sample.lap.mean())), terms),
            float(np.max(np.abs(sample.curvatures))) if sample.curvatures.size else 0.0)


def _relative(spread: float, scale: float) -> float:
    """spread / scale; a zero spread over a zero scale counts as 0."""
    return spread / scale if spread else 0.0


def group_runs(breaks: np.ndarray) -> tuple:
    """(starts, sizes) of the curvature groups of one row of ``LevelFrames.breaks``."""
    starts = np.flatnonzero(np.append(True, breaks)).tolist()
    return starts, np.diff(starts + [len(breaks) + 1]).tolist()


def modal(breaks: np.ndarray) -> tuple:
    """(rows, starts, sizes) of the most common curvature-group structure among
    the rows of ``breaks`` (``LevelFrames.breaks``), a tie going to the one met
    first: the rows that have it and its ``group_runs``."""
    code = breaks.dot(1 << np.arange(breaks.shape[1]))
    counts = Counter(code.tolist())  # in the order first met, which ``max`` keeps on a tie
    rows = code == max(counts, key=counts.get)
    return (rows,) + group_runs(breaks[rows.argmax()])


def modal_groups(sample) -> tuple:
    """(kappa, multiplicity) of each curvature group of the level's most common
    structure, kappa the mean over its points of their group means."""
    rows, starts, sizes = modal(sample.frames.breaks)
    k = sample.curvatures[rows]
    # each point's group mean is summed in order from 0, as its frame's groups are
    return tuple((float(np.mean(sum(k[:, a + j] for j in range(m)) / m)), m)
                 for a, m in zip(starts, sizes))


def modal_structure(samples) -> tuple:
    """The multiplicities of the most common curvature-group structure of all levels."""
    return tuple(modal(np.concatenate([s.frames.breaks for s in samples]))[2])


def concat_rows(records):
    """One record of the rows of ``records`` (records of one class), in order."""
    first = records[0]
    return replace(first, **{
        f.name: (concat_rows if isinstance(getattr(first, f.name), RowRecord)
                 else np.concatenate)([getattr(r, f.name) for r in records])
        for f in fields(first) if f.name != "norm"})


def randers_witness(norm: RandersNorm, field, samples, tol) -> dict:
    """``isoparametric._randers_witness`` from the first WITNESS_POINTS rows of
    each level's own frames, joined, with a, b and a' set level by level."""
    frames = concat_rows([s.frames[:WITNESS_POINTS] for s in samples])
    slopes = _profile_slopes(norm, field, frames.geometry.x, frames.normal,
                             frames.geometry.fstar)
    a, b, a_prime = (np.empty(len(frames)) for _ in range(3))
    start = 0
    for s in samples:
        level = slice(start, start + min(len(s.points), WITNESS_POINTS))
        start = level.stop
        a_primes = slopes[level][np.isfinite(slopes[level])]
        a[level], b[level] = s.fstar.mean(), s.lap.mean()
        a_prime[level] = a_primes.mean() if a_primes.size else 0.0
    df, hess = frames.geometry.df, frames.geometry.hess
    r1, r2 = randers_isoparametric_residual(norm, df, hess, a, b, a_prime)
    zeta = df.dot(norm.b)
    h = hess.reshape(len(hess), -1)
    r1_scale = np.maximum.reduce([(df * df).sum(axis=1), norm.lam * a**2, 2.0 * abs(a * zeta)])
    r2_scale = np.maximum.reduce([abs(hess.trace(axis1=1, axis2=2)), np.sqrt((h * h).sum(axis=1)),
                                  abs(norm.lam * b), abs((b / a + a_prime) * zeta)])
    r1_max, r2_max = (float(np.max(abs(r[r != 0.0]) / scale[r != 0.0], initial=0.0))
                      for r, scale in ((r1, r1_scale), (r2, r2_scale)))
    w_tol = max(100.0 * tol, 1e-4)
    return {
        "r1_max": r1_max,
        "r2_max": r2_max,
        "r1_pass": bool(r1_max <= w_tol),
        "r2_pass": bool(r2_max <= w_tol),
        "tolerance": w_tol,
    }
