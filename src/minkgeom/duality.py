"""Legendre inverse, dual norms, and subspace duals.

The Legendre transform L maps vectors to covectors by L(y)_i = F F_{y^i}(y),
which is the gradient of G = F^2/2, so its Jacobian is exactly the
fundamental tensor g(y); ``MinkowskiNorm.legendre`` computes it.  It is a
norm-preserving diffeomorphism away from zero.  Its inverse, the dual
fundamental tensor and the subspace dual are the norm's methods
``_legendre_inverse``, ``_dual_fundamental_tensor`` and ``_subspace_dual``.
Every family defines the inverse, one body for a covector or the rows of
an (N, n) array, which ``MinkowskiNorm._dual_rows`` reads for the points of
a verification (the alpha-beta one solves for one angle, by one bracketed
Newton for a covector or for rows from the Hermite inverse of a table of the
image angle that the norm builds once); the base class's dual tensor is
g^{-1} at the preimage and its subspace dual the restriction, which a family
with a closed form overrides.  The Newton iteration ``legendre_inverse_newton``,
damped by Armijo backtracking on G(y) - xi.y, is the oracle for the
inverses: of the tests for a covector, and of ``minkgeom dualcheck`` for
the rows of all its trials, with one order-2 ``_derivative_rows`` per trial
batch.

The dual norm is F*(xi) = sup_{y != 0} xi(y)/F(y) = F(L^{-1}(xi)), the
norm's ``_dual_value`` (a closed form for the Euclidean, Randers, k-th root
and scaled norms, F at the preimage otherwise), and the dual fundamental
tensor satisfies g*(L(y)) = g(y)^{-1}.

For a coordinate subspace Vbar of dimension m, the subspace dual is the norm
on Vbar whose value is sup over covectors supported in the first m
coordinates, Ftilde(ybar) = sup xibar(ybar) / F*(xibar).  In general
Ftilde <= F restricted to Vbar, with equality exactly when the Legendre map
preserves the subspace.
"""

from __future__ import annotations

import numpy as np

from .errors import NoConvergence, NotInDomain, ZeroCovector
from .norms import MinkowskiNorm, _as_rows, _as_vector, _check_subdim, _rescale, _scaled

NEWTON_MAX_ITER = 50


def legendre_inverse(norm: MinkowskiNorm, xi) -> np.ndarray:
    """The y with L(y) = xi: the family's inverse at xi / s, times s (``_as_vector``)."""
    xi, s = _as_vector(xi, norm, ZeroCovector)
    return _rescale(norm._legendre_inverse(xi), s, 1)


def legendre_inverse_newton(norm: MinkowskiNorm, xi) -> np.ndarray:
    """Generic damped Newton inversion of the Legendre map, for a covector or
    the rows of an (N, n) array.

    The oracle the families' inverses are tested against.  L(y) = xi is the
    minimum of the strictly convex phi(y) = G(y) - xi.y, with gradient
    L(y) - xi and Hessian g(y): each Newton step halves until Armijo's rule
    holds on phi (Boyd & Vandenberghe, Convex Optimization, 2004, 9.5) or
    it no longer moves y, which converges from the seed y = xi also where g
    degenerates (the k-th root near the coordinate hyperplanes).  Once phi's
    rounding hides the decrease a step predicts, a step must shrink
    |L(y) - xi| instead.  Iterates past the acceptance threshold,
    |L(y) - xi| <= 1e-12 |xi| (both of degree 1 in xi), down to stagnation,
    so the result is limited by conditioning, not by the stop rule; it
    raises ``NoConvergence`` if a row misses that bound.  Each row iterates
    and backtracks on its own, on the bits of a solve of that row alone; one
    order-2 ``_derivative_rows`` per trial batch gives phi (F), L(y) - xi
    (d1) and the next Jacobian g(y) (d2).  It solves at xi / s and scales y
    back by s, s per row (``_as_rows``; none when every row is in the window).
    """
    xi = np.asarray(xi, dtype=float)
    point = not (xi.ndim == 2 and xi.shape[1] == norm.dim)
    if point:
        Xi, s = _as_vector(xi, norm, ZeroCovector)
        Xi, s = Xi[None], None if s == 1.0 else np.array([s])
    else:
        Xi, s = _as_rows(xi, norm)
        if s is not None and not np.all(np.isfinite(s)):
            raise ZeroCovector("a covector row is zero or has non-finite entries")

    def at(Y, Xi):
        """(y, F, g, L(y) - xi, its length, phi) at each row of Y; NaN at y = 0."""
        F, d1, g = norm._derivative_rows(Y)
        res = d1 - Xi
        return Y, F, g, res, np.sqrt(np.vecdot(res, res)), 0.5 * F * F - np.vecdot(Xi, Y)

    scale = np.sqrt(np.vecdot(Xi, Xi))
    cur = at(Xi.copy(), Xi)
    Y, F, g, res, rnorm, phi = cur
    live = np.arange(len(Xi))  # the rows still iterating
    for iteration in range(NEWTON_MAX_ITER):
        live = live[rnorm[live] > 1e-15 * scale[live]]
        if not live.size:
            break
        try:
            step = np.linalg.solve(g[live], -res[live][:, :, None])[:, :, 0]
        except np.linalg.LinAlgError as exc:
            raise NoConvergence(iteration, float(rnorm[live].max())) from exc
        slope = np.vecdot(res[live], step)  # d phi / dt at t = 0, negative
        armijo = -slope > 1e-13 * (F[live] * F[live] + abs(phi[live]))
        # backtrack each row while its trial step still moves y
        y0, t = Y[live], np.ones(live.size)
        smallest = 1e-16 * np.sqrt(np.vecdot(y0, y0) / np.vecdot(step, step))
        trial, moved = np.flatnonzero(t > smallest), np.zeros(live.size, dtype=bool)
        while trial.size:
            rows = live[trial]
            new = at(y0[trial] + t[trial, None] * step[trial], Xi[rows])
            ok = np.where(armijo[trial], new[5] <= phi[rows] + 1e-4 * t[trial] * slope[trial],
                          new[4] < rnorm[rows])
            for a, b in zip(cur, new):
                a[rows[ok]] = b[ok]
            moved[trial[ok]] = True
            trial = trial[~ok]
            t[trial] *= 0.5
            trial = trial[t[trial] > smallest[trial]]
        live = live[moved]  # a row whose step stagnated keeps its current iterate
    missed = ~(rnorm <= 1e-12 * scale)
    if missed.any():
        raise NoConvergence(NEWTON_MAX_ITER, float(rnorm[missed].max()))
    with np.errstate(over="ignore", under="ignore"):
        Y = _scaled(Y, s)
    return Y[0] if point else Y


def dual_norm(norm: MinkowskiNorm, xi) -> float:
    """F*(xi) = sup_y xi(y)/F(y) = F(L^{-1} xi): the family's ``_dual_value``
    at xi / s, times s (``_as_vector``), with the bits of its row in
    ``_dual_values``."""
    xi, s = _as_vector(xi, norm, ZeroCovector)
    F = s * float(norm._dual_value(xi))
    if not F > 0.0:
        raise NotInDomain(f"F*(xi) = {F} is not positive; the dual norm is invalid at xi")
    return F


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
