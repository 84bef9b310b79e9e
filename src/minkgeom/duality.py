"""Legendre transform, dual norms, and subspace duals.

The Legendre transform L maps vectors to covectors by L(y)_i = F F_{y^i}(y),
which is the gradient of G = F^2/2, so its Jacobian is exactly the
fundamental tensor g(y).  It is a norm-preserving diffeomorphism away from
zero.  Its inverse, the dual fundamental tensor and the subspace dual come
from the norm family's closed-form hooks where it has them (``_legendre_inverse``,
``_dual_fundamental_tensor``, ``_subspace_dual``); otherwise the inverse is
a damped Newton iteration and the subspace dual is the restriction.

The dual norm is F*(xi) = sup_{y != 0} xi(y)/F(y) = F(L^{-1}(xi)), and the
dual fundamental tensor satisfies g*(L(y)) = g(y)^{-1}.

For a coordinate subspace Vbar of dimension m, the subspace dual is the norm
on Vbar whose value is sup over covectors supported in the first m
coordinates, Ftilde(ybar) = sup xibar(ybar) / F*(xibar).  In general
Ftilde <= F restricted to Vbar, with equality exactly when the Legendre map
preserves the subspace.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BadDimension, NoConvergence, ZeroCovector, ZeroVector
from .norms import MinkowskiNorm, ZERO_EXCLUSION
from .sampling import sphere_directions

NEWTON_MAX_ITER = 50


def _as_covector(xi, n: int) -> np.ndarray:
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (n,):
        raise BadDimension(f"expected a covector of length {n}, got shape {xi.shape}")
    sq = float(xi @ xi)  # the one-dot test of norms._as_vector
    if (not math.isfinite(sq) and not np.all(np.isfinite(xi))) or math.sqrt(sq) < ZERO_EXCLUSION:
        raise ZeroCovector("covector is inside the zero-exclusion ball")
    return xi


def legendre(norm: MinkowskiNorm, y) -> np.ndarray:
    """L(y)_i = F(y) F_{y^i}(y); equals g_ij(y) y^j; 1-homogeneous."""
    return norm.legendre(y)


def legendre_inverse(norm: MinkowskiNorm, xi) -> np.ndarray:
    """The vector y with L(y) = xi.

    The family's closed form where it has one, damped Newton otherwise.
    """
    xi = _as_covector(xi, norm.dim)
    try:
        return norm._legendre_inverse(xi)
    except NotImplementedError:
        return legendre_inverse_newton(norm, xi)


def legendre_inverse_newton(norm: MinkowskiNorm, xi) -> np.ndarray:
    """Generic damped Newton inversion of the Legendre map.

    Seeded with a naive index raise through g at the covector's components;
    L is a global diffeomorphism, so for well-conditioned norms this
    converges from that seed.  Iterates past the acceptance threshold down to
    stagnation, so the result is limited by conditioning, not by the stop
    rule.
    """
    xi = _as_covector(xi, norm.dim)
    scale = float(np.linalg.norm(xi))
    try:
        y = np.linalg.solve(norm.derivatives(xi, order=2).d2, xi)
    except (ZeroVector, np.linalg.LinAlgError):
        y = xi.copy()
    res = norm.legendre(y) - xi
    rnorm = float(np.linalg.norm(res))
    for iteration in range(NEWTON_MAX_ITER):
        if rnorm <= 1e-15 * scale:
            break
        try:
            step = np.linalg.solve(norm.derivatives(y, order=2).d2, -res)
        except np.linalg.LinAlgError as exc:
            raise NoConvergence(iteration, rnorm) from exc
        t = 1.0
        while t > 1e-6:
            y_new = y + t * step
            try:
                res_new = norm.legendre(y_new) - xi
            except ZeroVector:
                t *= 0.5
                continue
            rn = float(np.linalg.norm(res_new))
            if rn < rnorm:
                break
            t *= 0.5
        else:
            break  # stagnated; accept current iterate if below tolerance
        y, res, rnorm = y_new, res_new, rn
    fstar_sq = norm.value(y) ** 2
    if rnorm > 1e-12 * max(fstar_sq, ZERO_EXCLUSION):
        raise NoConvergence(NEWTON_MAX_ITER, rnorm)
    return y


def dual_norm(norm: MinkowskiNorm, xi) -> float:
    """F*(xi) = sup_y xi(y)/F(y) = F(L^{-1} xi)."""
    return norm.value(legendre_inverse(norm, xi))


def dual_fundamental_tensor(norm: MinkowskiNorm, xi) -> np.ndarray:
    """g*^{ij}(xi) of the dual norm; equals g(L^{-1} xi)^{-1}.

    The family's closed form where it has one (Randers: from the dual
    coefficients), the inverse of g at the Legendre preimage otherwise.
    """
    xi = _as_covector(xi, norm.dim)
    try:
        return norm._dual_fundamental_tensor(xi)
    except NotImplementedError:
        return np.linalg.inv(norm.derivatives(legendre_inverse(norm, xi), order=2).d2)


def dual_norm_grid_sup(norm: MinkowskiNorm, xi, count: int = 10_000) -> float:
    """Grid-maximization oracle for F*: max of xi(u)/F(u) over a sphere lattice.

    Independent of the Legendre machinery (uses only norm values); local
    Nelder-Mead refinement sharpens the best grid direction.
    """
    from scipy.optimize import minimize

    xi = _as_covector(xi, norm.dim)
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
    return float(-out.fun)


# -- subspace duals ------------------------------------------------------------


def subspace_dual(norm: MinkowskiNorm, m: int) -> MinkowskiNorm:
    """Ftilde, the dual metric of F*|_{first m coordinates}, as a norm on R^m.

    Coordinate alignment is a precondition: rotate the norm first for other
    subspaces (supported for Euclidean/Randers; the k-th root family is not
    rotation invariant and rejects rotation).
    """
    n = norm.dim
    if not 1 <= m < n:
        raise BadDimension(f"subspace dimension must satisfy 1 <= m < {n}, got {m}")
    try:
        return norm._subspace_dual(m)
    except NotImplementedError:
        return norm.restricted(m)


def subspace_dual_sup(norm: MinkowskiNorm, m: int, ybar, count: int = 10_000) -> float:
    """Oracle for Ftilde(ybar): sup of xibar(ybar)/F*(xibar) over a Vbar* grid."""
    from scipy.optimize import minimize

    ybar = np.asarray(ybar, dtype=float)
    if ybar.shape != (m,):
        raise BadDimension(f"expected a vector of length {m}")
    dirs = sphere_directions(m, count, seed=0) if m > 1 else np.array([[1.0], [-1.0]])
    vals = []
    for u in dirs:
        xi = np.zeros(norm.dim)
        xi[:m] = u
        vals.append(float(u @ ybar) / dual_norm(norm, xi))
    best = dirs[int(np.argmax(vals))]

    def neg(u):
        if np.linalg.norm(u) < 1e-12:
            return np.inf
        xi = np.zeros(norm.dim)
        xi[:m] = u
        return -float(u @ ybar) / dual_norm(norm, xi)

    out = minimize(neg, best, method="Nelder-Mead",
                   options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 4000})
    return float(-out.fun)
