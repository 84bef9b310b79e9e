"""Closed-form Randers machinery and worked model objects.

For F = |y| + b.y with ||b|| < 1 (the inner products in this module are
Euclidean and the module rejects anything else), the dual metric is again of
Randers type with

    a*^{ij} = (lam delta^{ij} + b^i b^j) / lam^2,   b*^i = -b^i / lam,

lam = 1 - |b|^2, and the gradient, dual norm, subspace dual, and the
isoparametric system all have explicit closed forms.  They are used as fast
paths and as independent witnesses against the generic tensor machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import calculus, duality, hypersurface
from .errors import BadDimension, NotInDomain, NotUnit, ZeroCovector
from .norms import MinkowskiNorm, RandersNorm
from .sampling import sphere_directions


@dataclass(frozen=True)
class RandersData:
    """Dual coefficients and subspace-split constants of a Randers norm.

    ``m`` is the optional coordinate-subspace split; ``bbar_sq`` is the
    squared norm of b restricted to the first m coordinates, and
    ``lam_bar = 1 - bbar_sq / (lam + bbar_sq)`` the dual-subspace constant.
    """

    b: np.ndarray
    lam: float
    astar: np.ndarray
    bstar: np.ndarray
    m: int | None = None
    bbar_sq: float | None = None
    lam_bar: float | None = None

    @staticmethod
    def from_norm(norm: RandersNorm, m: int | None = None) -> "RandersData":
        if not isinstance(norm, RandersNorm):
            raise NotInDomain("RandersData requires a Randers norm with Euclidean alpha")
        b = norm.b
        lam = norm.lam
        bbar_sq = lam_bar = None
        if m is not None:
            if not 1 <= m < b.size:
                raise BadDimension(f"m must satisfy 1 <= m < {b.size}")
            bbar_sq = float(b[:m] @ b[:m])
            lam_bar = 1.0 - bbar_sq / (lam + bbar_sq)
        return RandersData(b=b, lam=lam, astar=norm.astar, bstar=norm.bstar,
                           m=m, bbar_sq=bbar_sq, lam_bar=lam_bar)

    @property
    def dim(self) -> int:
        return self.b.size

    def norm(self) -> RandersNorm:
        return RandersNorm(self.b, validate=False)

    def dual_value(self, xi) -> float:
        xi = np.asarray(xi, dtype=float)
        alpha_star = math.sqrt(float(xi @ self.astar @ xi))
        return alpha_star + float(self.bstar @ xi)


def randers_gradient(data: RandersData, df) -> np.ndarray:
    """Closed-form gradient: (F*/(lam alpha*)) (df_sharp - F* b_sharp).

    Must coincide with the generic Legendre inversion.
    """
    df = np.asarray(df, dtype=float)
    if np.linalg.norm(df) < 1e-8:
        raise ZeroCovector("df is inside the zero-exclusion ball")
    alpha_star = math.sqrt(float(df @ data.astar @ df))
    fstar = alpha_star + float(data.bstar @ df)
    return (fstar / (data.lam * alpha_star)) * (df - fstar * data.b)


def randers_isoparametric_residual(data: RandersData, field, x, a_tilde, b_tilde,
                                   a_tilde_prime=None) -> tuple[float, float]:
    """Residuals of the Euclidean-quantity isoparametric system at x.

        r1 = |df|^2    - lam a(t)^2 - 2 a(t) <df, beta>
        r2 = Delta^a f - lam b(t)   - (b(t)/a(t) + a'(t)) <df, beta>

    with t = f(x) and Delta^a the Euclidean Laplacian.  ``a_tilde`` and
    ``b_tilde`` are candidate profile callables; ``a_tilde_prime`` defaults
    to a central difference of ``a_tilde``.
    """
    x = np.asarray(x, dtype=float)
    t = field.value(x)
    df = field.d1(x)
    if np.linalg.norm(df) < 1e-8:
        raise ZeroCovector("df vanishes at x")
    a_val = float(a_tilde(t))
    b_val = float(b_tilde(t))
    if a_tilde_prime is None:
        h = 1e-6 * (1.0 + abs(t))
        a_prime = (float(a_tilde(t + h)) - float(a_tilde(t - h))) / (2 * h)
    else:
        a_prime = float(a_tilde_prime(t))
    zeta = float(df @ data.b)
    r1 = float(df @ df) - data.lam * a_val**2 - 2.0 * a_val * zeta
    r2 = float(np.trace(field.d2(x))) - data.lam * b_val - (b_val / a_val + a_prime) * zeta
    return r1, r2


def cylinder_equation(data: RandersData, m: int, r: float, reverse: bool = False):
    """The (reverse) F*-Minkowski cylinder of radius r as a catalog field.

    Returns the potential f = +-Ftilde^2(+-xbar)/2 whose level +-r^2/2 is the
    cylinder; in coordinates the surface is
    sqrt(lam + bbar^2) |xbar| +- beta(xbar) = r.  Metadata carries the level
    registered for this radius.
    """
    if not r > 0.0:
        raise NotInDomain("cylinder radius must be positive")
    norm = data.norm()
    field = calculus.cylinder_potential(norm, m, reverse=reverse)
    level = -0.5 * r**2 if reverse else 0.5 * r**2
    field.meta["radius"] = float(r)
    field.meta["level"] = level
    return field


def cylinder_surface_residual(data: RandersData, m: int, r: float, x,
                              reverse: bool = False) -> float:
    """sqrt(lam + bbar^2)|xbar| +- beta(xbar) - r at x (zero on the cylinder)."""
    x = np.asarray(x, dtype=float)
    c = data.norm().subspace_scale(m)
    sign = -1.0 if reverse else 1.0
    return c * float(np.linalg.norm(x[:m])) + sign * float(data.b[:m] @ x[:m]) - r


def lemma61_check(data: RandersData, y, X, Y) -> tuple[float, float]:
    """(1 - Q_y(X, Y), alpha(y) (1 - b^2)) for a unit y and orthogonal X, Y.

    The two sides agree for every Randers norm; both are positive.
    """
    norm = data.norm()
    y = np.asarray(y, dtype=float)
    if abs(norm.value(y) - 1.0) > 1e-9:
        raise NotUnit("y must satisfy F(y) = 1")
    Q = hypersurface.cartan_curvature_Q(norm, y, X, Y)
    lhs = 1.0 - Q
    rhs = float(np.linalg.norm(y)) * (1.0 - float(data.b @ data.b))
    return lhs, rhs


def dual_subspace_condition_check(norm: MinkowskiNorm, m: int, count: int = 64,
                                  tol: float = 1e-8, verify_points: int = 4) -> bool:
    """Test the Legendre subspace-preservation condition F_{y^lam}(ybar) = 0.

    Samples ybar in the first-m-coordinates subspace; when the condition
    holds, Ftilde = F restricted, which is verified numerically against the
    sup-construction oracle.
    """
    n = norm.dim
    if not 1 <= m < n:
        raise BadDimension(f"m must satisfy 1 <= m < {n}")
    dirs = sphere_directions(m, count, seed=0) if m > 1 else np.array([[1.0], [-1.0]])
    worst = 0.0
    for u in dirs:
        ybar = np.zeros(n)
        ybar[:m] = u
        worst = max(worst, float(np.max(np.abs(norm.grad(ybar)[m:]))))
    holds = worst <= tol
    if holds:
        for u in dirs[:verify_points]:
            ybar = np.zeros(n)
            ybar[:m] = u
            ftilde = duality.subspace_dual_sup(norm, m, u, count=4000)
            if abs(ftilde - norm.value(ybar)) > 1e-8 * (1.0 + norm.value(ybar)):
                raise NotInDomain(
                    "subspace condition held but Ftilde != F restricted; "
                    "the norm violates the Legendre identity"
                )
    return holds
