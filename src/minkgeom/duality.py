"""Legendre inverse, dual norms, and subspace duals.

The Legendre transform L maps vectors to covectors by L(y)_i = F F_{y^i}(y),
which is the gradient of G = F^2/2, so its Jacobian is exactly the
fundamental tensor g(y); ``MinkowskiNorm.legendre`` computes it.  It is a
norm-preserving diffeomorphism away from zero.  Its inverse, the dual
fundamental tensor and the subspace dual are the norm's methods
``_legendre_inverse``, ``_dual_fundamental_tensor`` and ``_subspace_dual``.
Every family defines the inverse, one body for a covector or the rows of
an (N, n) array, which ``MinkowskiNorm._dual_rows`` reads for the points of
a verification (the alpha-beta one is a solve for one angle, whose rows
have their own Newton solve); the base class's dual tensor is g^{-1} at the
preimage and its subspace dual the restriction, which a family with a
closed form overrides.  The Newton iteration ``legendre_inverse_newton``,
damped by Armijo backtracking on G(y) - xi.y, is the tests' oracle for the
inverses.

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

from .errors import NoConvergence, ZeroCovector, ZeroVector
from .norms import MinkowskiNorm, _as_vector, _check_subdim, _rescale

NEWTON_MAX_ITER = 50


def legendre_inverse(norm: MinkowskiNorm, xi) -> np.ndarray:
    """The y with L(y) = xi: the family's inverse at xi / s, times s (``_as_vector``)."""
    xi, s = _as_vector(xi, norm, ZeroCovector)
    return _rescale(norm._legendre_inverse(xi), s, 1)


def legendre_inverse_newton(norm: MinkowskiNorm, xi) -> np.ndarray:
    """Generic damped Newton inversion of the Legendre map.

    The oracle the families' inverses are tested against.  L(y) = xi is the
    minimum of the strictly convex phi(y) = G(y) - xi.y, with gradient
    L(y) - xi and Hessian g(y): each Newton step halves until Armijo's rule
    holds on phi (Boyd & Vandenberghe, Convex Optimization, 2004, 9.5) or
    it no longer moves y, which converges from the seed y = xi also where g
    degenerates (the k-th root near the coordinate hyperplanes).  Once phi's
    rounding hides the decrease a step predicts, a step must shrink
    |L(y) - xi| instead.  Iterates past the acceptance threshold,
    |L(y) - xi| <= 1e-12 |xi| (both of degree 1 in xi), down to stagnation,
    so the result is limited by conditioning, not by the stop rule.  One
    order-2 ``derivatives`` call per trial point gives phi (F), L(y) - xi
    (d1) and the next Jacobian g(y) (d2).  It solves at xi / s and scales y
    back by s.
    """
    xi, s = _as_vector(xi, norm, ZeroCovector)
    scale = float(np.linalg.norm(xi))
    y = xi.copy()
    d = norm.derivatives(y, order=2)
    res = d.d1 - xi
    rnorm = math.sqrt(res.dot(res))
    phi = 0.5 * d.F * d.F - xi.dot(y)
    for iteration in range(NEWTON_MAX_ITER):
        if rnorm <= 1e-15 * scale:
            break
        try:
            step = np.linalg.solve(d.d2, -res)
        except np.linalg.LinAlgError as exc:
            raise NoConvergence(iteration, rnorm) from exc
        slope = res.dot(step)  # d phi / dt at t = 0, negative
        armijo = -slope > 1e-13 * (d.F * d.F + abs(phi))
        # backtrack while the trial step still moves y
        t, smallest = 1.0, 1e-16 * math.sqrt(y.dot(y) / step.dot(step))
        while t > smallest:
            y_new = y + t * step
            try:
                d_new = norm.derivatives(y_new, order=2)
            except ZeroVector:
                t *= 0.5
                continue
            res_new = d_new.d1 - xi
            rn = math.sqrt(res_new.dot(res_new))
            phi_new = 0.5 * d_new.F * d_new.F - xi.dot(y_new)
            if (phi_new <= phi + 1e-4 * t * slope) if armijo else (rn < rnorm):
                break
            t *= 0.5
        else:
            break  # stagnated; accept current iterate if below tolerance
        y, d, res, rnorm, phi = y_new, d_new, res_new, rn, phi_new
    if rnorm > 1e-12 * scale:
        raise NoConvergence(NEWTON_MAX_ITER, rnorm)
    return _rescale(y, s, 1)


def dual_norm(norm: MinkowskiNorm, xi) -> float:
    """F*(xi) = sup_y xi(y)/F(y) = F(L^{-1} xi)."""
    return norm.value(legendre_inverse(norm, xi))


def dual_fundamental_tensor(norm: MinkowskiNorm, xi) -> np.ndarray:
    """g*^{ij}(xi) of the dual norm; equals g(L^{-1} xi)^{-1}.

    The family's closed form where it has one (Randers: from the dual
    coefficients), the inverse of g at the Legendre preimage otherwise; g*
    is 0-homogeneous, so it is taken at xi / s (``norms._as_vector``).
    """
    return norm._dual_fundamental_tensor(_as_vector(xi, norm, ZeroCovector)[0])


# -- subspace duals ------------------------------------------------------------


def subspace_dual(norm: MinkowskiNorm, m: int) -> MinkowskiNorm:
    """Ftilde, the dual metric of F*|_{first m coordinates}, as a norm on R^m.

    Coordinate alignment is a precondition: rotate the norm first for other
    subspaces (supported for Euclidean/Randers; the k-th root family is not
    rotation invariant and rejects rotation).
    """
    _check_subdim(m, norm.dim)
    return norm._subspace_dual(m)
