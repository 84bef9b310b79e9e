"""Level-set frames, principal curvatures, and Cartan curvature.

At a regular point of N_t = f^{-1}(t) the forward unit normal is
n = grad f / F(grad f), and the second fundamental form with respect to
ghat = g_n is

    hhat(X, Y) = -D^2 f(X, Y) / F(grad f)

on the tangent space.  Principal curvatures are the eigenvalues of hhat in a
ghat-orthonormal tangent frame.  ``level_frames`` is the one frame builder:
it builds the frames of a level's ``LevelGeometry`` as one ``LevelFrames``
of arrays (one g-Gram-Schmidt, one shape-operator product, one batched
``eigh``); a ``HypersurfacePointFrame`` is one row of it, built only when
asked for, and ``frame_at`` is the builder's call on one point.  The
sectional curvature of the induced connection reduces in a Minkowski space
to the product identity Khat(e_a ^ e_b) = k_a k_b, which is how it is
computed here (the intrinsic connection itself is never constructed).

The Cartan curvature Q_y(X, Y) is the scalar invariant built from the Cartan
tensor and its derivative that controls the Cartan-type formula; for a
Randers norm 1 - Q = alpha (1 - b^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._linalg import orthonormal_basis
from .calculus import (LevelGeometry, PointGeometry, RowRecord, ScalarField, geometry_rows,
                       point_geometry)
from .errors import EigenFailure, NotOrthogonal
from .norms import MinkowskiNorm, _as_vector

ORTHO_TOL = 1e-8


@dataclass(frozen=True)
class HypersurfacePointFrame:
    """Frame data of a level set at one regular point: one row of ``LevelFrames``.

    ``tangent_basis`` rows are ghat-orthonormal, so ``principal_curvatures``
    are plain eigenvalues of ``hhat``; ``eigenvectors`` rows are the ambient
    principal directions, sorted like them.  ``groups`` lists (kappa_r, m_r)
    for the curvature groups of ``level_frames``.  ``geometry`` is the point
    geometry the frame was built from (grad f, F(grad f), Delta f).
    """

    x: np.ndarray
    normal: np.ndarray
    tangent_basis: np.ndarray
    hhat: np.ndarray
    principal_curvatures: np.ndarray
    eigenvectors: np.ndarray
    groups: tuple
    geometry: PointGeometry


@dataclass(frozen=True)
class LevelFrames(RowRecord):
    """The ``HypersurfacePointFrame`` fields of a level's points as arrays, one
    row per point, built from ``geometry``: normal (N, n), tangent_basis and
    eigenvectors (N, n-1, n), hhat (N, n-1, n-1), principal_curvatures
    (N, n-1).  ``breaks`` (N, n-2) marks each step between neighbouring
    curvatures above the group tolerance, where a new group starts.
    """

    geometry: LevelGeometry
    normal: np.ndarray
    tangent_basis: np.ndarray
    hhat: np.ndarray
    principal_curvatures: np.ndarray
    eigenvectors: np.ndarray
    breaks: np.ndarray

    def __len__(self):
        return len(self.normal)

    def row(self, i) -> HypersurfacePointFrame:
        k = self.principal_curvatures[i].tolist()
        return HypersurfacePointFrame(
            x=self.geometry.x[i], normal=self.normal[i], tangent_basis=self.tangent_basis[i],
            hhat=self.hhat[i], principal_curvatures=self.principal_curvatures[i],
            eigenvectors=self.eigenvectors[i], geometry=self.geometry[i],
            groups=tuple((sum(k[a:a + m]) / m, m) for a, m in zip(*group_runs(self.breaks[i]))))


def group_runs(breaks: np.ndarray) -> tuple:
    """(starts, sizes) of the curvature groups of one row of ``LevelFrames.breaks``."""
    starts = np.flatnonzero(np.append(True, breaks)).tolist()
    return starts, np.diff(starts + [len(breaks) + 1]).tolist()


def frame_at(norm: MinkowskiNorm, field: ScalarField, x,
             basis_seed: int = 0) -> HypersurfacePointFrame:
    """Build the hypersurface frame of the level set of ``field`` through x:
    ``level_frames`` of its one ``point_geometry``."""
    geometry = geometry_rows(norm, [point_geometry(norm, field, x)])
    return level_frames(norm, field, geometry, basis_seed)[0]


def level_frames(norm: MinkowskiNorm, field: ScalarField, geometry: LevelGeometry,
                 basis_seed: int = 0) -> LevelFrames:
    """The hypersurface frames of the rows of ``geometry``, built as one stack.

    The rows of one geometry dimension m share one g-Gram-Schmidt
    (``orthonormal_basis``); all rows share one shape-operator product and
    one batched ``eigh``.  A row of the subspace-dual reduction (k-th root
    families, whose gradient for cylinder potentials lies on a coordinate
    plane) gets its tangent frame on the first m coordinates, and the
    complement directions are principal with curvature zero, as in the
    cylinder model.  Curvatures are grouped within max(1e-9, 1e-6 max|kappa|),
    or max(1e-4, 1e-4 max|kappa|) under finite differences.
    """
    n = norm.dim
    fstar = geometry.fstar
    normal = geometry.grad / fstar[:, None]
    tangent = np.zeros((len(geometry), n - 1, n))
    for m in sorted(set(geometry.m.tolist())):
        rows = geometry.m == m
        tangent[rows, : m - 1, :m] = orthonormal_basis(geometry.g[rows, :m, :m],
                                                       first=normal[rows, :m],
                                                       basis_seed=basis_seed)
        tangent[rows, m - 1:, m:] = np.eye(n - m)
    hhat = -(tangent @ geometry.hess @ tangent.transpose(0, 2, 1)) / fstar[:, None, None]
    hhat = 0.5 * (hhat + hhat.transpose(0, 2, 1))
    try:
        vals, vecs = np.linalg.eigh(hhat)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure("eigendecomposition of the shape operator failed") from exc
    kmax = abs(vals).max(axis=1)
    tol = (np.maximum(1e-4, 1e-4 * kmax) if norm.strategy == "fd" or field.uses_fd
           else np.maximum(1e-9, 1e-6 * kmax))
    return LevelFrames(geometry=geometry, normal=normal, tangent_basis=tangent, hhat=hhat,
                       principal_curvatures=vals, eigenvectors=vecs.transpose(0, 2, 1) @ tangent,
                       breaks=np.diff(vals, axis=1) > tol[:, None])


def mean_curvatures(frame: HypersurfacePointFrame) -> tuple[float, float]:
    """(ghat-mean curvature, volumetric mean curvature) = (sum k_a, same).

    The S-curvature of a Minkowski space with BH or HT volume vanishes, so
    the two notions coincide.  A loose internal gate cross-checks the trace
    identity F(grad f) Hhat = -sum_a D^2 f(e_a, e_a).
    """
    hhat_sum = float(np.sum(frame.principal_curvatures))
    trace_sum = float(np.trace(frame.hhat))
    size = max(float(np.sum(np.abs(frame.principal_curvatures))), abs(trace_sum))
    if abs(hhat_sum - trace_sum) > 1e-6 * size:
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
