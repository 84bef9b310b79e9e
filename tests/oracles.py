"""Oracles of the tests: sampled grids and closed-form residuals.

``grid_validate`` samples F and g on a sphere lattice, independent of the
alpha-beta constructor's exact criterion it checks.  The sup oracles use
only norm values (and, for the subspace dual, F* values) on a sphere
lattice, refined by Nelder-Mead, so they are independent of the Legendre
machinery they check.  They need scipy, which the package does not;
``demos/02_legendre_duality.py`` loads this file by path.  The Cartan
tensors, the trace residual of a frame and the Randers cylinder residual
are read only by the tests.
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from minkgeom.duality import dual_norm
from minkgeom.errors import BadDimension, DegenerateMetric, NotInDomain, ZeroCovector
from minkgeom.norms import AlphaBetaNorm, MinkowskiNorm, RandersNorm, _as_vector
from minkgeom.sampling import sphere_directions


@dataclass(frozen=True)
class CartanData:
    """Cartan tensor C_ijk and its y-derivative Ccal_ijkl at a direction."""

    C: np.ndarray
    Ccal: np.ndarray


def cartan_tensors(norm: MinkowskiNorm, y) -> CartanData:
    """Cartan tensor and its derivative, C = G_ijk/2 and Ccal = G_ijkl/2."""
    d = norm.derivatives(y, order=4)
    return CartanData(C=0.5 * d.d3, Ccal=0.5 * d.d4)


def mean_curvature_residual(frame) -> float:
    """| F(grad f) * Hhat + sum_a D^2 f(e_a, e_a) | of a hypersurface frame,
    which must vanish."""
    hess = frame.geometry.hess
    faa = float(sum(e @ hess @ e for e in frame.tangent_basis))
    return abs(frame.geometry.fstar * float(np.sum(frame.principal_curvatures)) + faa)


def cylinder_surface_residual(norm: RandersNorm, m: int, r: float, x,
                              reverse: bool = False) -> float:
    """sqrt(lam + bbar^2)|xbar| +- beta(xbar) - r at x (zero on the cylinder).

    The cylinder is the level +-r^2/2 of ``calculus.cylinder_potential``;
    NotInDomain for a norm other than Randers.
    """
    if not isinstance(norm, RandersNorm):
        raise NotInDomain("requires a Randers norm with Euclidean alpha")
    x = np.asarray(x, dtype=float)
    sign = -1.0 if reverse else 1.0
    return (norm.subspace_scale(m) * float(np.linalg.norm(x[:m]))
            + sign * float(norm.b[:m] @ x[:m]) - r)


def grid_validate(norm: MinkowskiNorm, count: int | None = None):
    """Falsification pass: F > 0 and g positive definite on a sphere grid of
    ``2 ** max(8, n + 4)`` directions by default, read through one ``_values``
    and one ``_derivative_rows``; the error names the first failing direction
    in grid order."""
    n = norm.dim
    if count is None:
        count = 2 ** max(8, n + 4)
    dirs = sphere_directions(n, count, seed=0)
    positive = norm._values(dirs) > 0.0
    g = norm._derivative_rows(dirs)[2]
    try:
        np.linalg.cholesky(g[positive])
        definite = positive
    except np.linalg.LinAlgError:
        definite = np.array([p and _cholesky_error(gi) is None for p, gi in zip(positive, g)])
    if definite.all():
        return
    i = int(np.argmin(definite))
    u = dirs[i]
    if not positive[i]:
        raise NotInDomain(f"F <= 0 at sampled direction {u!r}")
    raise DegenerateMetric(
        f"fundamental tensor not positive definite at direction {u!r}"
    ) from _cholesky_error(g[i])


def _cholesky_error(g):
    """The LinAlgError of the Cholesky factorization of g, or None."""
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError as exc:
        return exc
    return None


class _Unchecked(AlphaBetaNorm):
    def _check_profile(self):
        pass


def unchecked_alpha_beta(profile, b: float, n: int) -> AlphaBetaNorm:
    """The alpha-beta norm without the constructor's validity criterion, so
    that the grid and the tests can look at the norms the criterion rejects."""
    return _Unchecked(profile, b, n)


def dual_norm_grid_sup(norm: MinkowskiNorm, xi, count: int = 10_000) -> float:
    """Grid-maximization oracle for F*: max of xi(u)/F(u) over a sphere lattice.

    Independent of the Legendre machinery (uses only norm values); local
    Nelder-Mead refinement sharpens the best grid direction.  F* is
    1-homogeneous: the sup is taken at xi / s and scaled back by s.
    """
    xi, s = _as_vector(xi, norm, ZeroCovector)
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
    return s * float(-out.fun)


def subspace_dual_sup(norm: MinkowskiNorm, m: int, ybars, count: int = 10_000) -> np.ndarray:
    """Oracle for Ftilde at each row of ``ybars`` (shape (k, m)): the sup of
    xibar(ybar)/F*(xibar) over one Vbar* grid of F* values, refined per row
    by Nelder-Mead.  Returns the k values."""
    ybars = np.asarray(ybars, dtype=float)
    if ybars.ndim != 2 or ybars.shape[1] != m:
        raise BadDimension(f"expected rows of length {m}, got shape {ybars.shape}")
    dirs = sphere_directions(m, count, seed=0) if m > 1 else np.array([[1.0], [-1.0]])

    def fstar(u):
        xi = np.zeros(norm.dim)
        xi[:m] = u
        return dual_norm(norm, xi)

    fstars = [fstar(u) for u in dirs]
    out = np.empty(len(ybars))
    for row, ybar in enumerate(ybars):
        vals = [float(u @ ybar) / fs for u, fs in zip(dirs, fstars)]
        best = dirs[int(np.argmax(vals))]

        def neg(u):
            if np.linalg.norm(u) < 1e-12:
                return np.inf
            return -float(u @ ybar) / fstar(u)

        res = minimize(neg, best, method="Nelder-Mead",
                       options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 4000})
        out[row] = -res.fun
    return out
