"""Closed-form Randers witnesses.

For F = |y| + b.y with ||b|| < 1 (``RandersNorm``, Euclidean alpha), the
dual metric is again of Randers type with the coefficients
``RandersNorm.astar`` and ``RandersNorm.bstar``, and the isoparametric
system and the Cartan curvature have explicit closed forms.  The witnesses
below take the ``RandersNorm`` itself, reject any other norm with
NotInDomain, and check the generic tensor machinery independently;
``dual_subspace_condition_check``, the gradient test of subspace
preservation by the Legendre map, applies to every family.
"""

from __future__ import annotations

import numpy as np

from . import hypersurface
from .errors import NotInDomain, NotUnit
from .norms import MinkowskiNorm, RandersNorm, _check_subdim
from .sampling import sphere_directions

SUBSPACE_DIRECTIONS = 64  # directions of the subspace sampled by the gradient test
SUBSPACE_TOL = 1e-8       # bound on |F_{y^lam}(ybar)| over max |F_y(ybar)|


def _require_randers(norm) -> RandersNorm:
    if not isinstance(norm, RandersNorm):
        raise NotInDomain("requires a Randers norm with Euclidean alpha")
    return norm


def randers_isoparametric_residual(norm: RandersNorm, df, hess, a, b, a_prime) -> tuple:
    """Residuals of the Euclidean-quantity isoparametric system at a point.

        r1 = |df|^2    - lam a(t)^2 - 2 a(t) <df, beta>
        r2 = Delta^a f - lam b(t)   - (b(t)/a(t) + a'(t)) <df, beta>

    from the point's df and Hessian D^2 f, with a, b, a' the profile values
    at its level t and Delta^a f = tr D^2 f the Euclidean Laplacian.  Rows
    df (N, n) and hess (N, n, n), with a, b, a' per row or shared, give the
    arrays (r1, r2) of the rows; one point gives floats.
    """
    norm = _require_randers(norm)
    df, hess = np.asarray(df, dtype=float), np.asarray(hess, dtype=float)
    r1, r2 = _isoparametric_terms(norm, df, hess, a, b, a_prime)[:2]
    return (r1, r2) if df.ndim > 1 else (float(r1), float(r2))


def _isoparametric_terms(norm: RandersNorm, df, hess, a, b, a_prime) -> tuple:
    """(r1, r2, |df|^2, zeta, r2's terms) of ``randers_isoparametric_residual``
    at the rows df, hess (arrays), with zeta = <df, beta> and r2's terms
    (tr D^2 f, lam b(t), (b(t)/a(t) + a'(t)) zeta): each formed once, for the
    residuals and for the scales they are measured against."""
    zeta = df.dot(norm.b)
    dfdf = (df * df).sum(axis=-1)
    terms = (hess.trace(axis1=-2, axis2=-1), norm.lam * b, (b / a + a_prime) * zeta)
    r1 = dfdf - norm.lam * a**2 - 2.0 * a * zeta
    return r1, terms[0] - terms[1] - terms[2], dfdf, zeta, terms


def lemma61_check(norm: RandersNorm, y, X, Y) -> tuple[float, float]:
    """(1 - Q_y(X, Y), alpha(y) (1 - b^2)) for a unit y and orthogonal X, Y.

    The two sides agree for every Randers norm; both are positive.
    """
    norm = _require_randers(norm)
    y = np.asarray(y, dtype=float)
    if abs(norm.value(y) - 1.0) > 1e-9:
        raise NotUnit("y must satisfy F(y) = 1")
    Q = hypersurface.cartan_curvature_Q(norm, y, X, Y)
    lhs = 1.0 - Q
    rhs = float(np.linalg.norm(y)) * norm.lam
    return lhs, rhs


def dual_subspace_condition_check(norm: MinkowskiNorm, m: int) -> bool:
    """Test the Legendre subspace-preservation condition F_{y^lam}(ybar) = 0.

    Samples ybar in the first-m-coordinates subspace and bounds the largest
    |F_{y^lam}(ybar)| by SUBSPACE_TOL times the largest |F_y(ybar)|, a test
    that does not change when the norm is scaled.  When the condition holds,
    the Legendre map preserves the subspace, so Ftilde = F restricted.
    """
    n = norm.dim
    _check_subdim(m, n)
    dirs = (sphere_directions(m, SUBSPACE_DIRECTIONS, seed=0) if m > 1
            else np.array([[1.0], [-1.0]]))
    ybar = np.zeros((len(dirs), n))
    ybar[:, :m] = dirs
    F, d1 = norm._derivative_rows(ybar, 1)[:2]
    grad = abs(d1 / F[:, None])  # F_y, one row per direction
    return bool(grad[:, m:].max() <= SUBSPACE_TOL * grad.max())
