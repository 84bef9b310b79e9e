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
grad f, which ``point_geometry`` computes once.  The dual-tensor and
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
from .norms import MinkowskiNorm, RandersNorm, _check_subdim, fd_gradient, fd_hessian
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

    def __post_init__(self):
        if self.anchor is None:
            self.anchor = np.zeros(self.dim)

    def value(self, x) -> float:
        return float(self.value_fn(np.asarray(x, dtype=float)))

    def d1(self, x) -> np.ndarray:
        return np.asarray(self.d1_fn(np.asarray(x, dtype=float)), dtype=float)

    def d2(self, x) -> np.ndarray:
        return np.asarray(self.d2_fn(np.asarray(x, dtype=float)), dtype=float)

    def __repr__(self):
        return f"<ScalarField {self.tag} dim={self.dim}>"


# -- catalog -------------------------------------------------------------------


def linear_field(c) -> ScalarField:
    c = np.asarray(c, dtype=float)
    n = c.size
    return ScalarField(
        dim=n,
        tag="linear",
        value_fn=lambda x: c.dot(x),
        d1_fn=lambda x: c.copy(),
        d2_fn=lambda x: np.zeros((n, n)),
        meta={"c": c},
    )


def sphere_potential(norm: MinkowskiNorm, reverse: bool = False) -> ScalarField:
    """f = F^2(x)/2, or -F^2(-x)/2 for the reverse hypersphere family.

    Level t of the forward field is the Minkowski hypersphere F(x) = sqrt(2t);
    level t < 0 of the reverse field is the reverse hypersphere
    F(-x) = sqrt(-2t).  The forward normal of the reverse field points toward
    the center, which is what flips the principal curvature sign.
    """
    n = norm.dim
    if reverse:
        return ScalarField(
            dim=n,
            tag="half_squared_norm_reverse",
            value_fn=lambda x: -0.5 * norm.value(-x) ** 2,
            d1_fn=lambda x: norm.legendre(-x),
            d2_fn=lambda x: -norm.derivatives(-x, order=2).d2,
            regular_range=(-math.inf, 0.0),
            meta={"norm": norm, "reverse": True},
        )
    return ScalarField(
        dim=n,
        tag="half_squared_norm",
        value_fn=lambda x: 0.5 * norm.value(x) ** 2,
        d1_fn=lambda x: norm.legendre(x),
        d2_fn=lambda x: norm.derivatives(x, order=2).d2,
        regular_range=(0.0, math.inf),
        meta={"norm": norm, "reverse": False},
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
    return ScalarField(
        dim=n,
        tag=tag,
        value_fn=lambda x: sign * 0.5 * tilde.value(sign * x[:m]) ** 2,
        d1_fn=lambda x: embed_cov(tilde.legendre(sign * x[:m])),
        d2_fn=lambda x: sign * embed_mat(tilde.derivatives(sign * x[:m], order=2).d2),
        regular_range=(0.0, math.inf) if not reverse else (-math.inf, 0.0),
        meta={"norm": norm, "m": m, "reverse": reverse, "tilde": tilde},
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

    return ScalarField(
        dim=n,
        tag="norm_plus_linear",
        value_fn=value,
        d1_fn=d1,
        d2_fn=d2,
        regular_range=(0.0, math.inf),
        meta={"norm": norm, "m": m, "b": b},
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
    """Centered finite difference of div(grad f); an independent oracle."""
    x = np.asarray(x, dtype=float)
    n = field.dim
    h = step * (1.0 + np.linalg.norm(x))
    total = 0.0
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        gp = gradient(norm, field, x + e)[i]
        gm = gradient(norm, field, x - e)[i]
        total += (gp - gm) / (2 * h)
    return total


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
