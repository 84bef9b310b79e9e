"""Legendre inverse, dual norms, and subspace duals.

The Legendre transform L maps vectors to covectors by L(y)_i = F F_{y^i}(y),
which is the gradient of G = F^2/2, so its Jacobian is exactly the
fundamental tensor g(y); ``MinkowskiNorm.legendre`` computes it.  It is a
norm-preserving diffeomorphism away from zero.  Its inverse, the dual
fundamental tensor and the subspace dual are the norm's methods
``_legendre_inverse``, ``_dual_fundamental_tensor`` and ``_subspace_dual``.
Every family defines the inverse (the alpha-beta one is a solve for one
angle); the base class's dual tensor is g^{-1} at the preimage and its
subspace dual the restriction, which a family with a closed form overrides.
The damped Newton iteration ``legendre_inverse_newton`` is the tests' oracle
for the inverses.

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
from .norms import MinkowskiNorm, ZERO_EXCLUSION, _check_subdim

NEWTON_MAX_ITER = 50


def _as_covector(xi, n: int) -> np.ndarray:
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (n,):
        raise BadDimension(f"expected a covector of length {n}, got shape {xi.shape}")
    sq = xi.dot(xi)  # the one-dot test of norms._as_vector
    if (not math.isfinite(sq) and not np.all(np.isfinite(xi))) or math.sqrt(sq) < ZERO_EXCLUSION:
        raise ZeroCovector("covector is inside the zero-exclusion ball")
    return xi


def legendre_inverse(norm: MinkowskiNorm, xi) -> np.ndarray:
    """The vector y with L(y) = xi, from the family's inverse."""
    return norm._legendre_inverse(_as_covector(xi, norm.dim))


def legendre_inverse_newton(norm: MinkowskiNorm, xi) -> np.ndarray:
    """Generic damped Newton inversion of the Legendre map.

    The oracle the families' inverses are tested against.  Seeded with a
    naive index raise through g at the covector's components; L is a global
    diffeomorphism, so for well-conditioned norms this converges from that
    seed.  Iterates past the acceptance threshold, |L(y) - xi| <= 1e-12 |xi|
    (both of degree 1 in xi), down to stagnation, so the result is limited by
    conditioning, not by the stop rule.  One order-2 ``derivatives`` call per
    iterate gives both its residual L(y) - xi (d1) and the Jacobian g(y) of
    the next step (d2).
    """
    xi = _as_covector(xi, norm.dim)
    scale = float(np.linalg.norm(xi))
    try:
        y = np.linalg.solve(norm.derivatives(xi, order=2).d2, xi)
    except (ZeroVector, np.linalg.LinAlgError):
        y = xi.copy()
    d = norm.derivatives(y, order=2)
    res = d.d1 - xi
    rnorm = float(np.linalg.norm(res))
    for iteration in range(NEWTON_MAX_ITER):
        if rnorm <= 1e-15 * scale:
            break
        try:
            step = np.linalg.solve(d.d2, -res)
        except np.linalg.LinAlgError as exc:
            raise NoConvergence(iteration, rnorm) from exc
        t = 1.0
        while t > 1e-6:
            y_new = y + t * step
            try:
                d_new = norm.derivatives(y_new, order=2)
            except ZeroVector:
                t *= 0.5
                continue
            res_new = d_new.d1 - xi
            rn = float(np.linalg.norm(res_new))
            if rn < rnorm:
                break
            t *= 0.5
        else:
            break  # stagnated; accept current iterate if below tolerance
        y, d, res, rnorm = y_new, d_new, res_new, rn
    if rnorm > 1e-12 * scale:
        raise NoConvergence(NEWTON_MAX_ITER, rnorm)
    return y


def dual_norm(norm: MinkowskiNorm, xi) -> float:
    """F*(xi) = sup_y xi(y)/F(y) = F(L^{-1} xi); s F*(xi/s) when xi.xi overflows."""
    xi = _as_covector(xi, norm.dim)
    if xi.dot(xi) == math.inf:
        s = float(abs(xi).max())
        return s * dual_norm(norm, xi / s)
    return norm.value(legendre_inverse(norm, xi))


def dual_fundamental_tensor(norm: MinkowskiNorm, xi) -> np.ndarray:
    """g*^{ij}(xi) of the dual norm; equals g(L^{-1} xi)^{-1}.

    The family's closed form where it has one (Randers: from the dual
    coefficients), the inverse of g at the Legendre preimage otherwise.
    """
    return norm._dual_fundamental_tensor(_as_covector(xi, norm.dim))


# -- subspace duals ------------------------------------------------------------


def subspace_dual(norm: MinkowskiNorm, m: int) -> MinkowskiNorm:
    """Ftilde, the dual metric of F*|_{first m coordinates}, as a norm on R^m.

    Coordinate alignment is a precondition: rotate the norm first for other
    subspaces (supported for Euclidean/Randers; the k-th root family is not
    rotation invariant and rejects rotation).
    """
    _check_subdim(m, norm.dim)
    return norm._subspace_dual(m)
