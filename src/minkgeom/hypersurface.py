"""Level-set frames, principal curvatures, and Cartan curvature.

At a regular point of N_t = f^{-1}(t) the forward unit normal is
n = grad f / F(grad f), and the second fundamental form with respect to
ghat = g_n is

    hhat(X, Y) = -D^2 f(X, Y) / F(grad f)

on the tangent space.  Principal curvatures are the eigenvalues of hhat in a
ghat-orthonormal tangent frame.  ``level_frames`` is the one frame builder:
it builds the frames of a level's point geometries as one stack (one
g-Gram-Schmidt, one shape-operator product, one batched ``eigh``), and
``frame_at`` is its call on one point.  The sectional curvature of the
induced connection reduces in a Minkowski space to the product identity
Khat(e_a ^ e_b) = k_a k_b, which is how it is computed here (the intrinsic
connection itself is never constructed).

The Cartan curvature Q_y(X, Y) is the scalar invariant built from the Cartan
tensor and its derivative that controls the Cartan-type formula; for a
Randers norm 1 - Q = alpha (1 - b^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._linalg import orthonormal_basis
from .calculus import PointGeometry, ScalarField, point_geometry
from .errors import EigenFailure, NotOrthogonal
from .norms import MinkowskiNorm, _as_vector

ORTHO_TOL = 1e-8


@dataclass(frozen=True)
class HypersurfacePointFrame:
    """Frame data of a level set at one regular point.

    ``tangent_basis`` rows are ghat-orthonormal, so ``principal_curvatures``
    are plain eigenvalues of ``hhat``.  ``groups`` lists (kappa_r, m_r) for
    distinct curvature values merged within max(1e-9, 1e-6 max|kappa|), or
    max(1e-4, 1e-4 max|kappa|) under finite differences; ``eigenvectors``
    rows are the corresponding ambient principal directions (sorted like the
    curvatures).  ``geometry`` is the shared point geometry the frame was
    built from (grad f, F(grad f), Delta f).
    """

    x: np.ndarray
    normal: np.ndarray
    tangent_basis: np.ndarray
    hhat: np.ndarray
    principal_curvatures: np.ndarray
    eigenvectors: np.ndarray
    groups: tuple
    geometry: PointGeometry


def frame_at(norm: MinkowskiNorm, field: ScalarField, x,
             basis_seed: int = 0) -> HypersurfacePointFrame:
    """Build the hypersurface frame of the level set of ``field`` through x:
    ``level_frames`` of its one ``point_geometry``."""
    return level_frames(norm, field, [point_geometry(norm, field, x)], basis_seed)[0]


def level_frames(norm: MinkowskiNorm, field: ScalarField, geometries,
                 basis_seed: int = 0) -> list:
    """The hypersurface frame at each point geometry, built as one stack.

    The rows of one geometry dimension m share one g-Gram-Schmidt
    (``orthonormal_basis``), one shape operator and one batched ``eigh``.
    When the point geometry is the subspace-dual reduction (k-th root
    families, whose gradient for cylinder potentials lies on a coordinate
    plane), the tangent frame is built on the first m coordinates and the
    complement directions are principal with curvature zero, as in the
    cylinder model.
    """
    n = norm.dim
    uses_fd = norm.strategy == "fd" or field.uses_fd
    frames = [None] * len(geometries)
    for m in sorted({geo.m for geo in geometries}):
        idx = [i for i, geo in enumerate(geometries) if geo.m == m]
        geos = [geometries[i] for i in idx]
        fstar = np.array([geo.fstar for geo in geos])
        normal = np.array([geo.grad for geo in geos]) / fstar[:, None]
        hess = np.array([geo.hess for geo in geos])
        tangent = np.zeros((len(geos), n - 1, n))
        tangent[:, : m - 1, :m] = orthonormal_basis(np.array([geo.g for geo in geos]),
                                                    first=normal[:, :m], basis_seed=basis_seed)
        tangent[:, m - 1:, m:] = np.eye(n - m)
        hhat = -(tangent @ hess @ tangent.transpose(0, 2, 1)) / fstar[:, None, None]
        hhat = 0.5 * (hhat + hhat.transpose(0, 2, 1))
        try:
            vals, vecs = np.linalg.eigh(hhat)
        except np.linalg.LinAlgError as exc:
            raise EigenFailure("eigendecomposition of the shape operator failed") from exc
        principal = vecs.transpose(0, 2, 1) @ tangent
        kmax = abs(vals).max(axis=1)
        group_tol = (np.maximum(1e-4, 1e-4 * kmax) if uses_fd
                     else np.maximum(1e-9, 1e-6 * kmax)).tolist()
        val_rows = vals.tolist()
        for r, (i, geo) in enumerate(zip(idx, geos)):
            frames[i] = HypersurfacePointFrame(
                x=geo.x,
                normal=normal[r],
                tangent_basis=tangent[r],
                hhat=hhat[r],
                principal_curvatures=vals[r],
                eigenvectors=principal[r],
                groups=_group_eigenvalues(val_rows[r], group_tol[r]),
                geometry=geo,
            )
    return frames


def _group_eigenvalues(vals: list, tol: float) -> tuple:
    """(mean, count) of each run of sorted values whose steps are at most tol."""
    groups = []
    start = 0
    for i in range(1, len(vals) + 1):
        if i == len(vals) or vals[i] - vals[i - 1] > tol:
            total = 0.0
            for v in vals[start:i]:
                total += v
            groups.append((total / (i - start), i - start))
            start = i
    return tuple(groups)


def mean_curvatures(frame: HypersurfacePointFrame) -> tuple[float, float]:
    """(ghat-mean curvature, volumetric mean curvature) = (sum k_a, same).

    The S-curvature of a Minkowski space with BH or HT volume vanishes, so
    the two notions coincide.  A loose internal gate cross-checks the trace
    identity F(grad f) Hhat = -sum_a D^2 f(e_a, e_a).
    """
    hhat_sum = float(np.sum(frame.principal_curvatures))
    trace_sum = float(np.trace(frame.hhat))
    if abs(hhat_sum - trace_sum) > 1e-6 * (1.0 + abs(hhat_sum)):
        raise EigenFailure("mean-curvature trace identity violated; frame is inconsistent")
    return hhat_sum, hhat_sum


def cartan_curvature_Q(norm: MinkowskiNorm, y, X, Y) -> float:
    """Cartan curvature Q_y(X, Y) for mutually g_y-orthogonal y, X, Y.

        Q = (2 F^2 / (g(X,X) g(Y,Y))) (2 sum_i C(X,X,e_i) C(Y,Y,e_i) - Ccal(X,X,Y,Y))

    over any g_y-orthonormal frame; the frame sum is evaluated as a
    g^{-1}-contraction, so no explicit frame is needed.  Scale invariant in
    y, X and Y separately, so each is taken at its ``_as_vector`` scale.
    """
    y, X, Y = (_as_vector(v, norm)[0] for v in (y, X, Y))
    d = norm.derivatives(y, order=4)
    g = d.d2
    gyy = float(y.dot(g).dot(y))
    gXX = float(X.dot(g).dot(X))
    gYY = float(Y.dot(g).dot(Y))
    for u, v, su, sv in ((y, X, gyy, gXX), (y, Y, gyy, gYY), (X, Y, gXX, gYY)):
        if abs(u.dot(g).dot(v)) > ORTHO_TOL * math.sqrt(su * sv):
            raise NotOrthogonal("vectors are not mutually g_y-orthogonal")
    C = 0.5 * d.d3
    Ccal = 0.5 * d.d4
    # C_ijk X^i X^j, C_ijk Y^i Y^j and Ccal_ijkl X^i X^j Y^k Y^l as chained dots
    cXX = X.dot(X.dot(C))
    cYY = Y.dot(Y.dot(C))
    frame_sum = float(cXX.dot(np.linalg.solve(g, cYY)))
    quad = float(Ccal.dot(Y).dot(Y).dot(X).dot(X))
    return (2.0 * d.F**2 / (gXX * gYY)) * (2.0 * frame_sum - quad)


def gram_orthogonal_triple(norm: MinkowskiNorm, rng) -> tuple:
    """A unit y (F(y) = 1) and X, Y mutually g_y-orthogonal to it.

    Draws y, X, Y in that order from ``rng`` (a numpy Generator) and
    Gram-Schmidt orthogonalizes X and Y in g_y.
    """
    y = rng.standard_normal(norm.dim)
    y = y / norm.value(y)
    g = norm.fundamental_tensor(y)
    X = rng.standard_normal(norm.dim)
    X = X - (X @ g @ y) / (y @ g @ y) * y
    Y = rng.standard_normal(norm.dim)
    Y = Y - (Y @ g @ y) / (y @ g @ y) * y
    Y = Y - (Y @ g @ X) / (X @ g @ X) * X
    return y, X, Y


def sectional_products(frame: HypersurfacePointFrame) -> np.ndarray:
    """Matrix of induced sectional curvatures Khat(e_a ^ e_b) = k_a k_b.

    Only off-diagonal entries are meaningful; the diagonal is set to zero.
    """
    k = frame.principal_curvatures
    out = np.outer(k, k)
    np.fill_diagonal(out, 0.0)
    return out


def cartan_formula_residual(frame: HypersurfacePointFrame) -> float:
    """Max over s of | sum_{r != s} m_r kappa_s kappa_r / (kappa_s - kappa_r) |.

    The Cartan-type formula for isoparametric level sets; identically zero
    when some kappa vanishes (the g = 2 model families), asserted numerically
    regardless.
    """
    groups = frame.groups
    if len(groups) < 2:
        return 0.0
    worst = 0.0
    for s, (ks, _) in enumerate(groups):
        total = sum(
            m_r * ks * kr / (ks - kr) for r, (kr, m_r) in enumerate(groups) if r != s
        )
        worst = max(worst, abs(total))
    return worst


def two_curvature_residuals(norm: MinkowskiNorm, frame: HypersurfacePointFrame) -> np.ndarray:
    """Values k_a k_b (1 - Q_n(e_a, e_b)) across eigenvector pairs from
    different curvature groups; all must vanish for g = 2 isoparametric
    level sets."""
    k = frame.principal_curvatures
    labels = np.repeat(np.arange(len(frame.groups)), [m for _, m in frame.groups])
    out = []
    for a in range(k.size):
        for b in range(a + 1, k.size):
            if labels[a] == labels[b]:
                continue
            Q = cartan_curvature_Q(norm, frame.normal, frame.eigenvectors[a],
                                   frame.eigenvectors[b])
            out.append(k[a] * k[b] * (1.0 - Q))
    return np.array(out)
