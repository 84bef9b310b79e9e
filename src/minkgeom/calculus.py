"""Scalar fields and the nonlinear calculus of a Minkowski norm.

The gradient of f is the Legendre preimage of df.  In linear coordinates on a
Minkowski space the Chern connection coefficients vanish and the Legendre
inverse has Jacobian g^{-1}, so the covariant Hessian collapses to the
coordinate Hessian:

    D^2 f(X, Y) = g_{grad f}(X^j d_j(grad f), Y) = f_ij X^i Y^j,

and the Laplacian (divergence of the gradient for any constant-density volume
form, so BH and HT agree) reduces to

    Delta f = g*^{ij}(df) f_ij = g^{ij}(grad f) f_ij = tr_{g_{grad f}} D^2 f.

Every quantity at a point comes from the same df, D^2 f, grad f and g at
grad f, which ``point_geometry`` computes once; ``level_geometry`` computes
them for all the points of a level, as whole arrays where the norm and the
field have stacked closed forms (``stacked_geometry``).  The dual-tensor and
orthonormal-frame-trace Laplacians are kept as independent pipelines to
cross-check the shared one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import duality
from ._linalg import orthonormal_basis
from .errors import (
    BadDimension,
    CriticalPoint,
    DegenerateMetric,
    DimensionTooLarge,
    MinkGeomError,
    NoConvergence,
)
from .norms import (MinkowskiNorm, RandersNorm, _check_subdim, fd_gradient, fd_hessian,
                    fd_jacobian)
from .sampling import sphere_directions, sphere_mean

CRITICAL_EPS = 1e-8
# relative central-difference step of custom_field (times 10 for D^2f)
CUSTOM_FD_STEP = 1e-5


@dataclass
class ScalarField:
    """A scalar function on R^n with first and second derivative services.

    Catalog entries carry analytic derivatives; custom fields may fall back
    to finite differences, which is flagged (``uses_fd``) and propagated into
    verification reports.  ``regular_range`` is the declared open interval of
    regular values J, and ``anchor`` the star-shape center used by radial
    level sampling.

    ``degree`` declares a positive integer k with f(anchor + s y) =
    s^k f(anchor + y) for s > 0, so a ray from the anchor meets level t at
    s = (t / f(anchor + d))^(1/k) and radial sampling needs no search.  The
    catalog fields declare it about their anchor, the origin: k = 1 for
    linear fields and |xbar| + b.x, k = 2 for the sphere and cylinder
    potentials (either sign).  Custom and reparametrized fields leave it
    None, and radial sampling searches each ray for its nearest root.

    ``rows(X, order)`` evaluates the field at the rows of X (N, n) as whole
    arrays: order 0 gives f (N,), NaN where f fails, and order 2 gives
    (df, D^2 f), (N, n) and (N, n, n).  The catalog constructors set it;
    ``values`` and ``stacked_geometry`` read it, and without it each row is
    evaluated on its own.
    """

    dim: int
    tag: str
    value_fn: object
    d1_fn: object
    d2_fn: object
    uses_fd: bool = False
    anchor: np.ndarray | None = None
    regular_range: tuple = (-math.inf, math.inf)
    meta: dict = dc_field(default_factory=dict)
    degree: int | None = None
    rows: object = None

    def __post_init__(self):
        if self.anchor is None:
            self.anchor = np.zeros(self.dim)

    def value(self, x) -> float:
        return float(self.value_fn(np.asarray(x, dtype=float)))

    def d1(self, x) -> np.ndarray:
        return np.asarray(self.d1_fn(np.asarray(x, dtype=float)), dtype=float)

    def d2(self, x) -> np.ndarray:
        return np.asarray(self.d2_fn(np.asarray(x, dtype=float)), dtype=float)

    def values(self, X) -> np.ndarray:
        """f at each row of X, NaN where f fails."""
        if self.rows is not None:
            return self.rows(X, 0)
        out = np.full(len(X), np.nan)
        for i, x in enumerate(X):
            try:
                out[i] = self.value(x)
            except MinkGeomError:
                pass
        return out

    def __repr__(self):
        return f"<ScalarField {self.tag} dim={self.dim}>"


# -- catalog -------------------------------------------------------------------


def linear_field(c) -> ScalarField:
    c = np.asarray(c, dtype=float)
    n = c.size

    def rows(X, order):
        if order == 0:
            return X.dot(c)
        return np.broadcast_to(c, X.shape), np.zeros((len(X), n, n))

    return ScalarField(
        dim=n,
        tag="linear",
        value_fn=lambda x: c.dot(x),
        d1_fn=lambda x: c.copy(),
        d2_fn=lambda x: np.zeros((n, n)),
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
    n = norm.dim
    sign = -1.0 if reverse else 1.0

    def rows(X, order):
        if order == 0:
            return sign * 0.5 * norm._values(sign * X) ** 2
        _, d1, d2 = norm._derivative_rows(sign * X)
        return d1, sign * d2

    if reverse:
        return ScalarField(
            dim=n,
            tag="half_squared_norm_reverse",
            value_fn=lambda x: -0.5 * norm.value(-x) ** 2,
            d1_fn=lambda x: norm.legendre(-x),
            d2_fn=lambda x: -norm.derivatives(-x, order=2).d2,
            regular_range=(-math.inf, 0.0),
            meta={"norm": norm, "reverse": True},
            degree=2,
            rows=rows,
        )
    return ScalarField(
        dim=n,
        tag="half_squared_norm",
        value_fn=lambda x: 0.5 * norm.value(x) ** 2,
        d1_fn=lambda x: norm.legendre(x),
        d2_fn=lambda x: norm.derivatives(x, order=2).d2,
        regular_range=(0.0, math.inf),
        meta={"norm": norm, "reverse": False},
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

    def embed_cov(xibar):
        out = np.zeros(n)
        out[:m] = xibar
        return out

    def embed_mat(h):
        out = np.zeros((n, n))
        out[:m, :m] = h
        return out

    sign = -1.0 if reverse else 1.0
    tag = "half_squared_subspace_dual" + ("_reverse" if reverse else "")

    def rows(X, order):
        xbar = sign * X[:, :m]
        if order == 0:
            return sign * 0.5 * tilde._values(xbar) ** 2
        _, d1, d2 = tilde._derivative_rows(xbar)
        df, hess = np.zeros(X.shape), np.zeros((len(X), n, n))
        df[:, :m] = d1
        hess[:, :m, :m] = sign * d2
        return df, hess

    return ScalarField(
        dim=n,
        tag=tag,
        value_fn=lambda x: sign * 0.5 * tilde.value(sign * x[:m]) ** 2,
        d1_fn=lambda x: embed_cov(tilde.legendre(sign * x[:m])),
        d2_fn=lambda x: sign * embed_mat(tilde.derivatives(sign * x[:m], order=2).d2),
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
        raise BadDimension("norm_plus_linear requires a Randers norm")
    n = norm.dim
    _check_subdim(m, n)
    b = norm.b

    def value(x):
        return math.sqrt(x[:m].dot(x[:m])) + b.dot(x)

    def d1(x):
        out = b.copy()
        r = math.sqrt(x[:m].dot(x[:m]))
        out[:m] += x[:m] / r
        return out

    def d2(x):
        out = np.zeros((n, n))
        r = math.sqrt(x[:m].dot(x[:m]))
        out[:m, :m] = (np.eye(m) - np.outer(x[:m], x[:m]) / r**2) / r
        return out

    def rows(X, order):
        xbar = X[:, :m]
        r = np.sqrt((xbar * xbar).sum(axis=1))
        if order == 0:
            return r + X.dot(b)
        with np.errstate(divide="ignore", invalid="ignore"):  # xbar = 0: NaN rows
            df = np.tile(b, (len(X), 1))
            df[:, :m] += xbar / r[:, None]
            hess = np.zeros((len(X), n, n))
            hess[:, :m, :m] = (np.eye(m) - xbar[:, :, None] * xbar[:, None, :]
                               / (r**2)[:, None, None]) / r[:, None, None]
        return df, hess

    return ScalarField(
        dim=n,
        tag="norm_plus_linear",
        value_fn=value,
        d1_fn=d1,
        d2_fn=d2,
        regular_range=(0.0, math.inf),
        meta={"norm": norm, "m": m, "b": b},
        degree=1,
        rows=rows,
    )


def custom_field(dim: int, value_fn, d1_fn=None, d2_fn=None) -> ScalarField:
    """Wrap user callables; missing derivatives use central differences.

    Custom evaluators must be side-effect free.
    """

    def fd_d1(x):
        return fd_gradient(value_fn, x, CUSTOM_FD_STEP * (1.0 + np.linalg.norm(x)))

    def fd_d2(x):
        return fd_hessian(value_fn, x, 10 * CUSTOM_FD_STEP * (1.0 + np.linalg.norm(x)))

    uses_fd = d1_fn is None or d2_fn is None
    return ScalarField(
        dim=dim,
        tag="custom",
        value_fn=value_fn,
        d1_fn=d1_fn or fd_d1,
        d2_fn=d2_fn or fd_d2,
        uses_fd=uses_fd,
    )


def reparametrized_field(field: ScalarField, profile) -> ScalarField:
    """phi o f with chain-rule derivatives; the profile provides ``phi(s)`` and
    ``derivatives(s)``, phi and at least its first two derivatives at s."""

    def value(x):
        return profile.phi(field.value(x))

    def d1(x):
        return profile.derivatives(field.value(x))[1] * field.d1(x)

    def d2(x):
        p, dp, d2p = profile.derivatives(field.value(x))[:3]
        df = field.d1(x)
        return d2p * np.outer(df, df) + dp * field.d2(x)

    lo, hi = field.regular_range
    plo = _safe_profile_value(profile, lo, -math.inf)
    phi_hi = _safe_profile_value(profile, hi, math.inf)
    return ScalarField(
        dim=field.dim,
        tag="reparametrized",
        value_fn=value,
        d1_fn=d1,
        d2_fn=d2,
        uses_fd=field.uses_fd,
        anchor=field.anchor.copy(),
        regular_range=(plo, phi_hi),
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


def _regular_jet(field: ScalarField, x) -> tuple[np.ndarray, np.ndarray]:
    """(df, D^2 f) at a regular point x.

    x is critical when df vanishes or when a critical point lies within
    relative distance CRITICAL_EPS of x: |df| <= CRITICAL_EPS |D^2 f| |x|.
    The test is unchanged under x -> cx for homogeneous fields and under
    f -> lam f + const.
    """
    x = np.asarray(x, dtype=float)
    df = field.d1(x)
    hess = field.d2(x)
    dnorm = math.sqrt(df.dot(df))
    h = hess.ravel()
    if dnorm == 0.0 or dnorm <= CRITICAL_EPS * (math.sqrt(h.dot(h)) * math.sqrt(x.dot(x))):
        raise CriticalPoint(
            f"df vanishes at x={x!r}; downstream formulas divide by F(grad f)"
        )
    return df, hess


@dataclass(frozen=True)
class PointGeometry:
    """The quantities of one regular point x that everything else reads.

    df and the Hessian D^2 f of the field, grad f = L^{-1}(df), the
    transnormal value F*(df) = F(grad f), the fundamental tensor g at
    grad f and the Laplacian Delta f = tr(g^{-1} D^2 f).  Level-set frames
    and curvatures are built from the same grad f, g and D^2 f.

    If g degenerates at grad f (k-th root norms, whose gradient for a
    cylinder potential lies on a coordinate plane) and df and D^2 f are
    supported on a coordinate prefix of length m < n, the geometry is that of
    the subspace dual on the first m coordinates, which is exact there:
    ``norm`` is Ftilde on R^m and ``g`` is m x m.  Otherwise m = n and
    ``norm`` is F.  ``df``, ``hess`` and ``grad`` always have length n.
    """

    x: np.ndarray
    norm: MinkowskiNorm
    m: int
    df: np.ndarray
    hess: np.ndarray
    grad: np.ndarray
    fstar: float
    g: np.ndarray
    lap: float


def point_geometry(norm: MinkowskiNorm, field: ScalarField, x) -> PointGeometry:
    """The shared geometry of ``field`` at x; raises CriticalPoint at critical x."""
    x = np.asarray(x, dtype=float)
    df, hess = _regular_jet(field, x)
    n = norm.dim
    try:
        return _geometry_in(norm, n, x, df, hess)
    except (np.linalg.LinAlgError, DegenerateMetric, NoConvergence) as exc:
        m = prefix_support(df, hess)
        if m == n:
            raise
        try:
            geo = _geometry_in(duality.subspace_dual(norm, m), m, x, df, hess)
        except MinkGeomError:
            raise exc
        if np.max(np.abs(norm.legendre(geo.grad) - df)) > 1e-8 * np.max(np.abs(df)):
            raise exc  # L does not preserve the subspace; the reduction is invalid
        return geo


def level_geometry(norm: MinkowskiNorm, field: ScalarField, X) -> list:
    """The ``PointGeometry`` of each row of X (N, n), a level's points.

    The norm's ``_level_geometry`` chooses the path: ``stacked_geometry`` for
    the families with stacked closed forms, one ``point_geometry`` per row for
    every other.  Raises CriticalPoint at the first critical row.
    """
    return norm._level_geometry(field, np.asarray(X, dtype=float))


def stacked_geometry(norm: MinkowskiNorm, field: ScalarField, X: np.ndarray) -> list:
    """``point_geometry`` at every row of X, computed as whole arrays.

    Takes the field's ``rows`` and the norm's ``_dual_rows`` on the analytic
    strategy; otherwise, or without ``rows``, each row takes
    ``point_geometry``.  Each row is scaled by the rule of
    ``norms._as_vector``.  A row that fails the critical-point test of
    ``_regular_jet`` or is non-finite, and every row when the Cholesky test
    of g fails on one, takes ``point_geometry``, which raises or reduces to
    the subspace dual as for one point.
    """
    if norm.strategy != "analytic" or field.rows is None:
        return [point_geometry(norm, field, x) for x in X]
    df, hess = field.rows(X, 2)
    with np.errstate(over="ignore", invalid="ignore"):
        dnorm = np.sqrt((df * df).sum(axis=1))
        hnorm = np.sqrt((hess * hess).sum(axis=(1, 2)))
        xnorm = np.sqrt((X * X).sum(axis=1))
        ok = (np.isfinite(dnorm) & np.isfinite(hnorm) & np.isfinite(xnorm) & (dnorm > 0.0)
              & ~(dnorm <= CRITICAL_EPS * (hnorm * xnorm)))
    grad, fstar, g = norm._dual_rows(df)
    ok &= np.isfinite(fstar) & (fstar > 0.0) & np.isfinite(g).all(axis=(1, 2))
    try:
        np.linalg.cholesky(g[ok])
    except np.linalg.LinAlgError:
        ok[:] = False  # the one-point path finds the failing row
    lap = np.full(len(X), np.nan)
    if ok.any():
        lap[ok] = (np.linalg.inv(g[ok]) * hess[ok]).sum(axis=(1, 2))
    n = norm.dim
    return [PointGeometry(x=X[i], norm=norm, m=n, df=df[i], hess=hess[i], grad=grad[i],
                          fstar=float(fstar[i]), g=g[i], lap=float(lap[i]))
            if ok[i] else point_geometry(norm, field, X[i]) for i in range(len(X))]


def _geometry_in(norm: MinkowskiNorm, m: int, x, df, hess) -> PointGeometry:
    grad_m = duality.legendre_inverse(norm, df[:m])
    g = norm.fundamental_tensor(grad_m)
    grad = np.zeros(df.size)
    grad[:m] = grad_m
    return PointGeometry(
        x=x, norm=norm, m=m, df=df, hess=hess, grad=grad,
        fstar=norm.value(grad_m), g=g,
        lap=float(np.linalg.inv(g).ravel().dot(hess[:m, :m].ravel())),
    )


def gradient(norm: MinkowskiNorm, field: ScalarField, x) -> np.ndarray:
    """grad f(x) = L^{-1}(df(x)); satisfies F(grad f) = F*(df) and L(grad f) = df."""
    return duality.legendre_inverse(norm, _regular_jet(field, x)[0])


def hessian_form(norm: MinkowskiNorm, field: ScalarField, x, X, Y) -> float:
    """D^2 f(X, Y) at x; symmetric; equals f_ij X^i Y^j in linear coordinates."""
    hess = _regular_jet(field, x)[1]
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    return float(X @ hess @ Y)


def prefix_support(df: np.ndarray, hess: np.ndarray) -> int:
    """Largest coordinate prefix carrying df and the Hessian.

    Returns the smallest m such that df vanishes beyond index m and hess
    vanishes outside the leading m x m block; equals the dimension for
    generically supported data.  Cylinder-model potentials are supported on
    such a prefix, which lets computations drop to the subspace-dual norm
    when a singular norm family degenerates on the complement.
    """
    n = df.size
    sdf = float(np.max(np.abs(df)))
    sh = max(float(np.max(np.abs(hess))), 1e-300)
    m = n
    while m > 1 and (
        abs(df[m - 1]) <= 1e-14 * sdf
        and float(np.max(np.abs(hess[m - 1, :]))) <= 1e-14 * sh
        and float(np.max(np.abs(hess[:, m - 1]))) <= 1e-14 * sh
    ):
        m -= 1
    return m


def laplacian(norm: MinkowskiNorm, field: ScalarField, x, method: str = "primal") -> float:
    """Finsler Laplacian Delta f(x) = div(grad f).

    ``method`` selects the pipeline: "primal" is tr(g^{-1} D^2 f) with g at
    grad f, read from the shared ``point_geometry``; "dual" contracts the
    dual fundamental tensor at df and "frame_trace" sums D^2 f over a
    g_{grad f}-orthonormal basis, both independent cross-checks.  All three
    run in the geometry's norm, so a degenerate metric on prefix-supported
    data is handled by the subspace-dual reduction.
    """
    if method not in ("primal", "dual", "frame_trace"):
        raise ValueError(f"unknown laplacian method {method!r}")
    geo = point_geometry(norm, field, x)
    if method == "primal":
        return geo.lap
    m = geo.m
    hess = geo.hess[:m, :m]
    if method == "dual":
        return float(np.tensordot(duality.dual_fundamental_tensor(geo.norm, geo.df[:m]), hess))
    grad = geo.grad[:m]
    frame = np.vstack([
        orthonormal_basis(geo.g, first=grad),
        (grad / math.sqrt(grad @ geo.g @ grad))[None, :],
    ])
    return float(sum(e @ hess @ e for e in frame))


def divergence_fd(norm: MinkowskiNorm, field: ScalarField, x, step: float = 1e-5) -> float:
    """Centered finite difference of div(grad f); an independent oracle.

    The step is step |x|, relative so that the oracle holds at every scale of
    a homogeneous field; at x = 0, which has no scale, it is ``step``.
    """
    x = np.asarray(x, dtype=float)
    h = step * (float(np.linalg.norm(x)) or 1.0)
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
    fvals = np.array([norm.value(u) for u in dirs])
    bh_mean, bh_err = sphere_mean(fvals ** (-float(n)))
    fstar = np.array([duality.dual_norm(norm, u) for u in dirs])
    ht_mean, ht_err = sphere_mean(fstar ** (-float(n)))
    return VolumeConstant(
        sigma_bh=1.0 / bh_mean,
        sigma_ht=ht_mean,
        sigma_bh_error=bh_err / bh_mean,
        sigma_ht_error=ht_err / max(ht_mean, 1e-300),
    )
