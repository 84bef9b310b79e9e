"""Legendre inverse, dual norms, and subspace duals.

The Legendre transform L maps vectors to covectors by L(y)_i = F F_{y^i}(y),
which is the gradient of G = F^2/2, so its Jacobian is exactly the
fundamental tensor g(y); ``MinkowskiNorm.legendre`` computes it.  It is a
norm-preserving diffeomorphism away from zero.  Its inverse, the dual
fundamental tensor and the subspace dual come from the norm family's
closed-form hooks where it has them (``_legendre_inverse``,
``_dual_fundamental_tensor``, ``_subspace_dual``); otherwise the dual tensor
is g^{-1} at the preimage and the subspace dual is the restriction.  Every
family in the package has an inverse hook (the alpha-beta one is a solve for
one angle); a family without one falls back to the damped Newton iteration
``legendre_inverse_newton``, which is also the tests' oracle for the hooks.

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
    sq = float(xi @ xi)  # the one-dot test of norms._as_vector
    if (not math.isfinite(sq) and not np.all(np.isfinite(xi))) or math.sqrt(sq) < ZERO_EXCLUSION:
        raise ZeroCovector("covector is inside the zero-exclusion ball")
    return xi


def legendre_inverse(norm: MinkowskiNorm, xi) -> np.ndarray:
    """The vector y with L(y) = xi.

    The family's inverse hook where it has one, damped Newton otherwise.
    """
    xi = _as_covector(xi, norm.dim)
    try:
        return norm._legendre_inverse(xi)
    except NotImplementedError:
        return legendre_inverse_newton(norm, xi)


def legendre_inverse_newton(norm: MinkowskiNorm, xi) -> np.ndarray:
    """Generic damped Newton inversion of the Legendre map.

    The fallback of ``legendre_inverse`` for a family without an inverse
    hook; no family in the package takes it, and it serves as the oracle the
    hooks are tested against.  Seeded with a naive index raise through g at
    the covector's components; L is a global diffeomorphism, so for
    well-conditioned norms this converges from that seed.  Iterates past the
    acceptance threshold, |L(y) - xi| <= 1e-12 |xi| (both of degree 1 in xi),
    down to stagnation, so the result is limited by conditioning, not by the
    stop rule.  One order-2 ``derivatives`` call per
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


# -- subspace duals ------------------------------------------------------------


def subspace_dual(norm: MinkowskiNorm, m: int) -> MinkowskiNorm:
    """Ftilde, the dual metric of F*|_{first m coordinates}, as a norm on R^m.

    Coordinate alignment is a precondition: rotate the norm first for other
    subspaces (supported for Euclidean/Randers; the k-th root family is not
    rotation invariant and rejects rotation).
    """
    _check_subdim(m, norm.dim)
    try:
        return norm._subspace_dual(m)
    except NotImplementedError:
        return norm.restricted(m)
