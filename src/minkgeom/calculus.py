"""Scalar fields and the nonlinear calculus of a Minkowski norm.

The gradient of f is the Legendre preimage of df.  In linear coordinates on a
Minkowski space the Chern connection coefficients vanish and the Legendre
inverse has Jacobian g^{-1}, so the covariant Hessian collapses to the
coordinate Hessian:

    D^2 f(X, Y) = g_{grad f}(X^j d_j(grad f), Y) = f_ij X^i Y^j,

which is ``X @ field.d2(x) @ Y`` at x, and the Laplacian (divergence of the
gradient for any constant-density volume form, so BH and HT agree) reduces to

    Delta f = g*^{ij}(df) f_ij = g^{ij}(grad f) f_ij = tr_{g_{grad f}} D^2 f.

A scalar field has one evaluator, ``ScalarField.rows``, f, df or (df, D^2 f)
at the rows of an array; ``value``, ``d1`` and ``d2`` are its calls on one
row.

Every quantity at a point comes from the same df, D^2 f, grad f and g at
grad f.  ``level_geometry`` is their one computation: for the rows of an
array, a level's points or a single point, it gives one ``LevelGeometry``
of arrays, for every norm family, strategy and field, and reduces a row
whose g degenerates to the subspace dual on a coordinate prefix.  Its int
index ``geometry[i]`` is the ``LevelGeometry`` of point i; ``laplacian``
and ``hypersurface.frame_at`` read the one row of a point.  The dual-tensor
and orthonormal-frame-trace Laplacians are kept as independent pipelines to
cross-check the shared one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import duality
from ._linalg import lengths, orthonormal_basis, scaled_lengths
from .errors import (
    CriticalPoint,
    DegenerateMetric,
    DimensionTooLarge,
    MinkGeomError,
    NotInDomain,
)
from .norms import MinkowskiNorm, RandersNorm, _check_subdim, fd_gradient, fd_hessian, fd_jacobian
from .sampling import sphere_directions, sphere_mean

CRITICAL_EPS = 1e-8
# central-difference step of custom_field relative to |x| (times 10 for D^2f)
CUSTOM_FD_STEP = 1e-5
# central-difference step of divergence_fd relative to |x|
DIVERGENCE_FD_STEP = 1e-5


@dataclass
class ScalarField:
    """A scalar function on R^n, evaluated by one service, ``rows``.

    ``rows(X, order)`` evaluates the field at the rows of X (N, n) as whole
    arrays: order 0 gives f (N,), order 1 df (N, n) and order 2 (df, D^2 f),
    (N, n) and (N, n, n), df with the same bits at orders 1 and 2; a row
    where the field is not defined is NaN.  ``value``, ``d1`` and ``d2`` are
    ``rows`` on one row, and raise NotInDomain where it is NaN.
    Catalog entries carry analytic derivatives; custom fields may fall back
    to finite differences, which is flagged (``uses_fd``) and propagated into
    verification reports.  ``regular_range`` is the declared open interval of
    regular values J.  Radial level sampling walks rays from the origin.

    ``degree`` declares a positive integer k with f(s y) = s^k f(y) for
    s > 0, so a ray from the origin meets level t at s = (t / f(d))^(1/k)
    and radial sampling needs no search.  The catalog fields declare it:
    k = 1 for linear fields and |xbar| + b.x, k = 2 for the sphere and
    cylinder potentials (either sign).  Custom and reparametrized fields
    leave it None, and radial sampling searches each ray for its nearest
    root.
    """

    dim: int
    tag: str
    rows: object
    uses_fd: bool = False
    regular_range: tuple = (-math.inf, math.inf)
    meta: dict = dc_field(default_factory=dict)
    degree: int | None = None

    def value(self, x) -> float:
        return float(self._row(x, 0)[0])

    def d1(self, x) -> np.ndarray:
        return self._row(x, 1)[0]

    def d2(self, x) -> np.ndarray:
        return self._row(x, 2)[1]

    def _row(self, x, order) -> tuple:
        """``rows`` on the one row x: (f,) at order 0, (df,) at order 1 and
        (df, D^2 f) at order 2."""
        x = np.asarray(x, dtype=float)
        out = self.rows(x[None, :], order)
        out = out if order == 2 else (out,)
        if any(np.isnan(a).any() for a in out):
            raise NotInDomain(f"the field is not defined at x={x!r}")
        return tuple(np.array(a[0]) for a in out)

    def __repr__(self):
        return f"<ScalarField {self.tag} dim={self.dim}>"


# -- catalog -------------------------------------------------------------------


def linear_field(c) -> ScalarField:
    c = np.asarray(c, dtype=float)
    n = c.size

    def rows(X, order):
        if order == 0:
            return X.dot(c)
        df = np.broadcast_to(c, X.shape)
        return df if order == 1 else (df, np.zeros((len(X), n, n)))

    return ScalarField(
        dim=n,
        tag="linear",
        meta={"c": c},
        degree=1,
        rows=rows,
    )


def sphere_potential(norm: MinkowskiNorm, reverse: bool = False) -> ScalarField:
    """f = F^2(x)/2, or -F^2(-x)/2 for the reverse hypersphere family.

    Level t of the forward field is the Minkowski hypersphere F(x) = sqrt(2t);
    level t < 0 of the reverse field is the reverse hypersphere
    F(-x) = sqrt(-2t).  The forward normal of the reverse field points toward
    the center, which is what flips the principal curvature sign.
    """
    sign = -1.0 if reverse else 1.0

    def rows(X, order):
        if order == 0:
            return sign * 0.5 * norm._values(sign * X) ** 2
        _, d1, d2 = norm._derivative_rows(sign * X, order)
        return d1 if order == 1 else (d1, sign * d2)

    return ScalarField(
        dim=norm.dim,
        tag="half_squared_norm" + ("_reverse" if reverse else ""),
        regular_range=(-math.inf, 0.0) if reverse else (0.0, math.inf),
        meta={"norm": norm, "reverse": reverse},
        degree=2,
        rows=rows,
    )


def cylinder_potential(norm: MinkowskiNorm, m: int, reverse: bool = False) -> ScalarField:
    """f = Ftilde^2(xbar)/2 (or the reverse-signed variant).

    Ftilde is the subspace dual of F on the first m coordinates; the level
    r^2/2 is the F*-Minkowski cylinder of radius r (a Ftilde-sphere in Vbar
    crossed with the flat complement).
    """
    n = norm.dim
    tilde = duality.subspace_dual(norm, m)
    sign = -1.0 if reverse else 1.0
    tag = "half_squared_subspace_dual" + ("_reverse" if reverse else "")

    def rows(X, order):
        xbar = sign * X[:, :m]
        if order == 0:
            return sign * 0.5 * tilde._values(xbar) ** 2
        _, d1, d2 = tilde._derivative_rows(xbar, order)
        df = np.zeros(X.shape)
        df[:, :m] = d1
        if order == 1:
            return df
        hess = np.zeros((len(X), n, n))
        hess[:, :m, :m] = sign * d2
        return df, hess

    return ScalarField(
        dim=n,
        tag=tag,
        regular_range=(0.0, math.inf) if not reverse else (-math.inf, 0.0),
        meta={"norm": norm, "m": m, "reverse": reverse, "tilde": tilde},
        degree=2,
        rows=rows,
    )


def norm_plus_linear(norm: RandersNorm, m: int) -> ScalarField:
    """f(x) = |xbar| + b.x for a Randers norm with defining covector b.

    The transnormal-but-not-isoparametric counterexample field: F*(df) = 1
    identically, while Delta f varies over level sets whenever b has a
    component outside the first m coordinates.
    """
    if not isinstance(norm, RandersNorm):
        raise NotInDomain("norm_plus_linear requires a Randers norm")
    n = norm.dim
    _check_subdim(m, n)
    b = norm.b

    # |xbar| scaled at every row, so that its level points keep their bits; u = xbar / |xbar|
    def rows(X, order):
        xbar = X[:, :m]
        r = scaled_lengths(xbar)
        if order == 0:
            return r + X.dot(b)
        with np.errstate(divide="ignore", invalid="ignore"):  # xbar = 0: NaN rows
            u = xbar / r[:, None]
            df = np.tile(b, (len(X), 1))
            df[:, :m] += u
            if order == 1:
                return df
            hess = np.zeros((len(X), n, n))
            hess[:, :m, :m] = (np.eye(m) - u[:, :, None] * u[:, None, :]) / r[:, None, None]
        return df, hess

    return ScalarField(
        dim=n,
        tag="norm_plus_linear",
        regular_range=(0.0, math.inf),
        meta={"norm": norm, "m": m, "b": b},
        degree=1,
        rows=rows,
    )


def custom_field(dim: int, value_fn, d1_fn=None, d2_fn=None) -> ScalarField:
    """Wrap user callables; missing derivatives use central differences.

    The step is CUSTOM_FD_STEP |x| (ten times that for D^2 f), relative so
    that the differences hold at every scale; at x = 0, which has no scale,
    it is CUSTOM_FD_STEP.  ``rows`` calls the callables at one row at a time:
    a row where one raises a MinkGeomError is NaN, and any other error
    propagates.  Custom evaluators must be side-effect free.
    """

    def step(x):
        return CUSTOM_FD_STEP * (math.hypot(*x.tolist()) or 1.0)

    def fd_d1(x):
        return fd_gradient(value_fn, x, step(x))

    def fd_d2(x):
        return fd_hessian(value_fn, x, 10 * step(x))

    uses_fd = d1_fn is None or d2_fn is None
    d1_fn, d2_fn = d1_fn or fd_d1, d2_fn or fd_d2

    def rows(X, order):
        N, n = X.shape
        f, df, hess = np.full(N, math.nan), np.full((N, n), math.nan), np.full((N, n, n), math.nan)
        for i, x in enumerate(X):
            try:
                if order == 0:
                    f[i] = value_fn(x)
                elif order == 1:
                    df[i] = d1_fn(x)
                else:
                    df[i], hess[i] = d1_fn(x), d2_fn(x)
            except MinkGeomError:
                pass
        return (f, df, (df, hess))[order]

    return ScalarField(dim=dim, tag="custom", rows=rows, uses_fd=uses_fd)


def reparametrized_field(field: ScalarField, profile) -> ScalarField:
    """phi o f with chain-rule derivatives, from the rows of f: d(phi o f) =
    phi'(f) df and D^2(phi o f) = phi''(f) df (x) df + phi'(f) D^2 f.  The
    profile provides ``phi(s)`` and ``derivatives(s)``, phi and at least its
    first two derivatives, elementwise for an array s.  phi must be strictly
    monotone on the regular range of f; the declared range is its image, in
    the direction of phi' at a finite point of that range."""

    def rows(X, order):
        f = field.rows(X, 0)
        if order == 0:
            return profile.phi(f)
        dp, d2p = (np.reshape(p, (-1, 1, 1)) for p in profile.derivatives(f)[1:3])
        if order == 1:
            return dp[:, :, 0] * field.rows(X, 1)
        df, hess = field.rows(X, 2)
        return dp[:, :, 0] * df, d2p * (df[:, :, None] * df[:, None, :]) + dp * hess

    lo, hi = field.regular_range
    inner = 0.5 * lo + 0.5 * hi if math.isfinite(hi - lo) else min(max(0.0, lo + 1.0), hi - 1.0)
    if profile.derivatives(inner)[1] < 0.0:  # decreasing: phi(hi) is the lower end
        lo, hi = hi, lo
    return ScalarField(
        dim=field.dim,
        tag="reparametrized",
        rows=rows,
        uses_fd=field.uses_fd,
        regular_range=(_safe_profile_value(profile, lo, -math.inf),
                       _safe_profile_value(profile, hi, math.inf)),
        meta={"base": field, "profile": profile},
    )


def _safe_profile_value(profile, t, default):
    if not math.isfinite(t):
        return default
    try:
        with np.errstate(all="ignore"):
            v = profile.phi(t)
    except (ArithmeticError, ValueError):
        return default
    return v if math.isfinite(v) else default


# -- differential operators ------------------------------------------------------


def _regular(df: np.ndarray, hnorm: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Which rows of X (N, n), with df (N, n) and |D^2 f| hnorm (N,), are regular.

    x is critical when df vanishes or when a critical point lies within
    relative distance CRITICAL_EPS of x: |df| <= CRITICAL_EPS |D^2 f| |x|;
    a row with a NaN is not regular either.  The test is unchanged under
    x -> cx for homogeneous fields and under f -> lam f + const; its lengths
    are taken by hypot, so they do not overflow.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return lengths(df) > CRITICAL_EPS * (hnorm * lengths(X))


def _regular_jet(field: ScalarField, x) -> tuple[np.ndarray, np.ndarray]:
    """(df, D^2 f) at x, which must be regular: ``_regular`` of its one row."""
    x = np.asarray(x, dtype=float)
    df, hess = field._row(x, 2)
    if not _regular(df[None], lengths(hess[None]), x[None])[0]:
        raise CriticalPoint(f"df vanishes at x={x!r}; downstream formulas divide by F(grad f)")
    return df, hess


class RowRecord:
    """Row access to a dataclass of per-row arrays (every field but ``norm``):
    ``rec[i]`` is the record of point i, with numpy scalars for its numbers
    and its vectors and matrices at their shapes, and ``rec[a:b]`` (or an
    index array) the record of those rows."""

    def __getitem__(self, i):
        out = object.__new__(type(self))  # filled without running __init__
        out.__dict__.update({k: v if k == "norm" else v[i] for k, v in self.__dict__.items()})
        return out


@dataclass(frozen=True)
class LevelGeometry(RowRecord):
    """The quantities of a level's regular points that everything else reads,
    one row per point: x, df, the Hessian D^2 f (hess), grad f = L^{-1}(df),
    the transnormal value F*(df) = F(grad f) (fstar), the fundamental tensor
    g at grad f, the Laplacian Delta f = tr(g^{-1} D^2 f) (lap), its term
    scale lap_scale = |g^{-1}|_F |D^2 f|_F and the geometry dimension m;
    x, df, grad (N, n), hess, g (N, n, n) and fstar, lap, lap_scale, m (N,).
    g^{-1} = g*(df) is the family's closed form where it has one.  Frames and
    curvatures are built from the same grad f, g and D^2 f.

    ``norm`` is the level's norm F.  A row reduced to the subspace dual
    ``subspace_dual(norm, m)`` on the first m < n coordinates holds its
    m x m g in g[i, :m, :m], with zeros around it.
    """

    norm: MinkowskiNorm
    x: np.ndarray
    df: np.ndarray
    hess: np.ndarray
    grad: np.ndarray
    fstar: np.ndarray
    g: np.ndarray
    lap: np.ndarray
    lap_scale: np.ndarray
    m: np.ndarray

    def __len__(self):
        return len(self.x)


def level_geometry(norm: MinkowskiNorm, field: ScalarField, X) -> LevelGeometry:
    """The geometry of the rows of X (N, n), a level's points, as whole arrays.

    df and D^2 f come from the field's ``rows``, the rest from
    ``_dual_geometry``.  A regular row whose g is not finite and positive
    definite (k-th root norms, singular at the gradient of every cylinder
    point) takes ``subspace_dual(norm, m)`` on the m x m blocks, m < n the
    prefix that carries its df and D^2 f (``prefix_support``): one
    ``_dual_geometry`` per m, kept where L of the padded gradient gives df
    back to 1e-8 max|df|.  The first row that still fails raises what
    ``_regular_jet`` raises on it (NotInDomain, CriticalPoint), else
    DegenerateMetric.  Every row is computed as on its own, so levels stack.
    """
    X = np.asarray(X, dtype=float)
    n = norm.dim
    df, hess = field.rows(X, 2)
    hnorm = lengths(hess)
    regular = _regular(df, hnorm, X)
    grad, fstar, g, lap, lap_scale, ok = _dual_geometry(norm, df, hess, hnorm, regular)
    m = np.full(len(X), n)
    if not ok.all():
        failed = np.flatnonzero(regular & ~ok)
        m[failed] = prefix_support(df[failed], hess[failed])
        for k in sorted(set(m[failed].tolist()) - {n}):
            rows = failed[m[failed] == k]
            try:
                tilde = duality.subspace_dual(norm, k)
            except MinkGeomError:  # no norm on R^k
                continue
            # a row left failing raises below, so every row takes its results
            block = hess[rows, :k, :k]
            grad[rows], g[rows] = 0.0, 0.0
            (grad[rows, :k], fstar[rows], g[rows, :k, :k], lap[rows], lap_scale[rows],
             kept) = _dual_geometry(tilde, df[rows, :k], block, lengths(block))
            with np.errstate(invalid="ignore"):
                gap = abs(norm._derivative_rows(grad[rows], 1)[1] - df[rows]).max(axis=1)
            ok[rows] = kept & (gap <= 1e-8 * abs(df[rows]).max(axis=1))
        bad = np.flatnonzero(~ok)
        if bad.size:
            x = X[bad[0]]
            _regular_jet(field, x)  # an undefined or critical row raises as on its own
            raise DegenerateMetric(f"g at grad f = L^-1(df) is not finite and positive "
                                   f"definite at x={x!r}, and no subspace dual on a "
                                   f"coordinate prefix holds there")
    return LevelGeometry(norm=norm, x=X, df=df, hess=hess, grad=grad, fstar=fstar, g=g, lap=lap,
                         lap_scale=lap_scale, m=m)


def _dual_geometry(norm: MinkowskiNorm, df, hess, hnorm, ok=True) -> tuple:
    """(grad, fstar, g, lap, lap_scale, ok) of ``norm`` at the covector rows df
    (N, n), with D^2 f (N, n, n) of lengths hnorm: one ``_dual_rows``, and
    Delta f = tr(g^{-1} D^2 f) and its term scale on the rows ``ok`` keeps,
    those with F*(df) finite and positive and g finite and passing the
    Cholesky test (NaN elsewhere).  g^{-1} is the norm's closed form for g*
    at df (``_dual_fundamental_tensor``, read at the rows ``_dual_rows``
    windowed), the inverse of g on the fd strategy.  When every row is kept,
    the test and Delta f run on the arrays themselves, with no masked copy
    or store."""
    grad, fstar, g, xi = norm._dual_rows(df)
    ok = ok & np.isfinite(fstar) & (fstar > 0.0) & np.isfinite(g).all(axis=(1, 2))
    every = ok.all()
    try:
        np.linalg.cholesky(g if every else g[ok])
    except np.linalg.LinAlgError:
        # a diagonal entry <= 0 fails the test for certain; the other rows
        # are tested on their own
        ok &= (np.diagonal(g, axis1=1, axis2=2) > 0.0).all(axis=1)
        for i in np.flatnonzero(ok).tolist():
            try:
                np.linalg.cholesky(g[i])
            except np.linalg.LinAlgError:
                ok[i] = False
        every = False
    if every:  # the arrays themselves: no masked copies or stores
        return (grad, fstar, g, *_laplacian_terms(norm, g, xi, hess, hnorm), ok)
    lap, lap_scale = np.full(len(df), np.nan), np.full(len(df), np.nan)
    if ok.any():
        lap[ok], lap_scale[ok] = _laplacian_terms(norm, g[ok], xi[ok], hess[ok], hnorm[ok])
    return grad, fstar, g, lap, lap_scale, ok


def _laplacian_terms(norm: MinkowskiNorm, g, xi, hess, hnorm) -> tuple:
    """(Delta f, lap_scale) of ``_dual_geometry`` at rows that passed its tests."""
    # g* has degree 0, so it is read at df in the window; fd checks it by inverting g
    ginv = np.linalg.inv(g) if norm.strategy == "fd" else norm._dual_fundamental_tensor(xi, g)
    return (ginv * hess).sum(axis=(1, 2)), lengths(ginv) * hnorm


def gradient(norm: MinkowskiNorm, field: ScalarField, x) -> np.ndarray:
    """grad f(x) = L^{-1}(df(x)); satisfies F(grad f) = F*(df) and L(grad f) = df."""
    return duality.legendre_inverse(norm, _regular_jet(field, x)[0])


def prefix_support(df: np.ndarray, hess: np.ndarray) -> np.ndarray:
    """Length of the coordinate prefix carrying df and the Hessian, per row.

    For each row of df (N, n) and hess (N, n, n), the smallest m >= 1 such
    that df vanishes beyond index m and hess outside the leading m x m block,
    each to 1e-14 of its largest entry; n for generically supported data.
    Cylinder-model potentials are supported on such a prefix, which lets
    computations drop to the subspace-dual norm when a singular norm family
    degenerates on the complement.
    """
    n = df.shape[-1]
    ah = abs(hess)
    sh = 1e-14 * np.maximum(ah.max(axis=(-2, -1)), 1e-300)[..., None]
    off = ((abs(df) <= 1e-14 * abs(df).max(axis=-1, keepdims=True))
           & (ah.max(axis=-1) <= sh) & (ah.max(axis=-2) <= sh))
    # n less the trailing run of coordinates off the support, at least 1
    return np.maximum(n - np.cumprod(off[..., ::-1], axis=-1).sum(axis=-1), 1)


def laplacian(norm: MinkowskiNorm, field: ScalarField, x, method: str = "primal") -> float:
    """Finsler Laplacian Delta f(x) = div(grad f).

    ``method`` selects the pipeline: "primal" is tr(g^{-1} D^2 f) with g at
    grad f, read from the ``level_geometry`` of the one row x; "dual"
    contracts the dual fundamental tensor at df and "frame_trace" sums
    D^2 f over a g_{grad f}-orthonormal basis, both independent
    cross-checks.  All three run in the geometry's norm, so a degenerate
    metric on prefix-supported data is handled by the subspace-dual
    reduction.
    """
    if method not in ("primal", "dual", "frame_trace"):
        raise ValueError(f"unknown laplacian method {method!r}")
    geo = level_geometry(norm, field, [x])[0]
    if method == "primal":
        return geo.lap
    m = geo.m
    hess = geo.hess[:m, :m]
    if method == "dual":
        sub = norm if m == norm.dim else duality.subspace_dual(norm, m)
        return float(np.tensordot(duality.dual_fundamental_tensor(sub, geo.df[:m]), hess))
    g, grad = geo.g[:m, :m], geo.grad[:m]
    frame = np.vstack([
        orthonormal_basis(g[None], grad[None])[0],
        (grad / math.sqrt(grad @ g @ grad))[None, :],
    ])
    return float(sum(e @ hess @ e for e in frame))


def divergence_fd(norm: MinkowskiNorm, field: ScalarField, x) -> float:
    """Centered finite difference of div(grad f); an independent oracle.

    The step is DIVERGENCE_FD_STEP |x|, relative so that the oracle holds at
    every scale of a homogeneous field; at x = 0, which has no scale, it is
    DIVERGENCE_FD_STEP.
    """
    x = np.asarray(x, dtype=float)
    h = DIVERGENCE_FD_STEP * (float(np.linalg.norm(x)) or 1.0)
    return float(fd_jacobian(lambda z: gradient(norm, field, z), x, h).trace())


# -- volume constants -------------------------------------------------------------


@dataclass(frozen=True)
class VolumeConstant:
    """Busemann-Hausdorff and Holmes-Thompson densities with error estimates.

    sigma_bh = vol(B^n) / vol({F < 1});  sigma_ht = vol({F* < 1}) / vol(B^n).
    Both equal 1 for the Euclidean norm, and both are constants on a
    Minkowski space, so they cancel in the Laplacian; they are reported for
    completeness.  Error fields are relative quasi-Monte-Carlo estimates.
    """

    sigma_bh: float
    sigma_ht: float
    sigma_bh_error: float
    sigma_ht_error: float


def volume_constants(norm: MinkowskiNorm, count: int = 20_000, seed: int = 0) -> VolumeConstant:
    n = norm.dim
    if n > 6:
        raise DimensionTooLarge("volume quadrature supports n <= 6")
    dirs = sphere_directions(n, count, seed=seed)
    bh_mean, bh_err = sphere_mean(norm._values(dirs) ** (-float(n)))
    fstar = norm._dual_values(dirs)
    ht_mean, ht_err = sphere_mean(fstar ** (-float(n)))
    return VolumeConstant(
        sigma_bh=1.0 / bh_mean,
        sigma_ht=ht_mean,
        sigma_bh_error=bh_err / bh_mean,
        sigma_ht_error=ht_err / max(ht_mean, 1e-300),
    )
