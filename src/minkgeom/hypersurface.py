"""Level-set frames, principal curvatures, and Cartan curvature.

At a regular point of N_t = f^{-1}(t) the forward unit normal is
n = grad f / F(grad f), and the second fundamental form with respect to
ghat = g_n is

    hhat(X, Y) = -D^2 f(X, Y) / F(grad f)

on the tangent space.  Principal curvatures are the eigenvalues of hhat in a
ghat-orthonormal tangent frame.  ``level_frames`` is the one frame builder:
it builds the frames of a level's ``LevelGeometry`` as one ``LevelFrames``
of arrays (one g-Gram-Schmidt of every row, reduced or not, one
shape-operator product, one batched ``eigh`` of the curvatures alone, closed
form at 2 x 2); ``frames[i]`` is the ``LevelFrames`` of point i, and
``frame_at`` is its call on one point.
The mean curvature is sum k_a: the S-curvature of a Minkowski space with BH
or HT volume vanishes, so the ghat-mean and volumetric mean curvatures
coincide.  The sectional curvature of the induced connection reduces in a
Minkowski space to the product identity Khat(e_a ^ e_b) = k_a k_b (the
intrinsic connection itself is never constructed).

The Cartan curvature Q_y(X, Y) is the scalar invariant built from the Cartan
tensor and its derivative that controls the Cartan-type formula; for a
Randers norm 1 - Q = alpha (1 - b^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._linalg import orthonormal_basis
from .calculus import LevelGeometry, RowRecord, ScalarField, level_geometry
from .errors import EigenFailure, NotOrthogonal
from .norms import MinkowskiNorm, _as_vector

ORTHO_TOL = 1e-8


@dataclass(frozen=True)
class LevelFrames(RowRecord):
    """Frame data of a level set at a level's regular points, one row per
    point, built from ``geometry`` (grad f, F(grad f), Delta f): the forward
    unit normal (N, n); ``tangent_basis`` (N, n-1, n), whose rows are
    ghat-orthonormal, so the ``principal_curvatures`` (N, n-1) are plain
    eigenvalues of ``hhat`` (N, n-1, n-1).  ``breaks`` (N, n-2) marks each
    step between neighbouring curvatures above the group tolerance, where a
    new group starts.
    """

    geometry: LevelGeometry
    normal: np.ndarray
    tangent_basis: np.ndarray
    hhat: np.ndarray
    principal_curvatures: np.ndarray
    breaks: np.ndarray

    def __len__(self):
        return len(self.normal)

    @property
    def groups(self) -> tuple:
        """(kappa_r, m_r) of the curvature groups of a point's frame ``frames[i]``:
        the mean curvature and the size of each run of ``group_runs``."""
        k = self.principal_curvatures.tolist()
        return tuple((sum(k[a:a + m]) / m, m) for a, m in zip(*group_runs(self.breaks)))


def group_runs(breaks: np.ndarray) -> tuple:
    """(starts, sizes) of the curvature groups of one row of ``LevelFrames.breaks``."""
    starts = [0] + [j + 1 for j, b in enumerate(breaks) if b]
    return starts, [b - a for a, b in zip(starts, starts[1:] + [len(breaks) + 1])]


def frame_at(norm: MinkowskiNorm, field: ScalarField, x) -> LevelFrames:
    """Build the hypersurface frame of the level set of ``field`` through x:
    ``level_frames`` of the ``level_geometry`` of its one row."""
    return level_frames(norm, field, level_geometry(norm, field, [x]))[0]


def level_frames(norm: MinkowskiNorm, field: ScalarField, geometry: LevelGeometry) -> LevelFrames:
    """The hypersurface frames of the rows of ``geometry``, built as one stack.

    All rows share one g-Gram-Schmidt (``orthonormal_basis``), one
    shape-operator product and one batched ``eigh`` for the curvatures alone
    (closed form at n = 3).  A row of the subspace-dual reduction (k-th root
    families, whose gradient for cylinder potentials lies on a coordinate
    plane) has g = block-diag(gtilde, I), so the complement's coordinate
    axes close its tangent frame, principal with curvature zero, as in the
    cylinder model.  Curvatures are grouped within max(1e-9 s, 1e-6 max|kappa|),
    or max(1e-4 s, 1e-4 max|kappa|) under finite differences, with
    s = |g^{-1}|_F |D^2 f|_F / F*(df) (``lap_scale`` / F*), the size of
    hhat's entries, so that the groups do not change when the level or the
    norm is scaled.
    """
    fstar = geometry.fstar
    normal = geometry.grad / fstar[:, None]
    tangent = orthonormal_basis(geometry.g, normal)
    hhat = -(tangent @ geometry.hess @ tangent.transpose(0, 2, 1)) / fstar[:, None, None]
    hhat = 0.5 * (hhat + hhat.transpose(0, 2, 1))
    if norm.dim == 3:  # a 2 x 2 hhat per row: mid -+ r
        a, b, d = hhat[:, 0, 0], hhat[:, 0, 1], hhat[:, 1, 1]
        mid, r = 0.5 * (a + d), np.hypot(0.5 * (a - d), b)
        vals = mid[:, None] + r[:, None] * [-1.0, 1.0]
    else:
        try:
            vals = np.linalg.eigh(hhat)[0]  # the values-only solver's differ in the last bits
        except np.linalg.LinAlgError as exc:
            raise EigenFailure("eigendecomposition of the shape operator failed") from exc
    kmax, size = abs(vals).max(axis=1), geometry.lap_scale / fstar
    tol = (1e-4 * np.maximum(size, kmax) if norm.strategy == "fd" or field.uses_fd
           else np.maximum(1e-9 * size, 1e-6 * kmax))
    return LevelFrames(geometry=geometry, normal=normal, tangent_basis=tangent, hhat=hhat,
                       principal_curvatures=vals, breaks=np.diff(vals, axis=1) > tol[:, None])


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
    gy, gX, gY = g.dot(y), g.dot(X), g.dot(Y)
    gyy, gXX, gYY = float(y.dot(gy)), float(X.dot(gX)), float(Y.dot(gY))
    for u, gv, su, sv in ((y, gX, gyy, gXX), (y, gY, gyy, gYY), (X, gY, gXX, gYY)):
        if abs(u.dot(gv)) > ORTHO_TOL * math.sqrt(su * sv):
            raise NotOrthogonal("vectors are not mutually g_y-orthogonal")
    # d3_ijk X^i X^j, d3_ijk Y^i Y^j and d4_ijkl X^i X^j Y^k Y^l as chained
    # dots; C = d3 / 2 and Ccal = d4 / 2 leave their 1/4 and 1/2 in the scalar
    cXX, cYY = X.dot(X.dot(d.d3)), Y.dot(Y.dot(d.d3))
    frame_sum = float(cXX.dot(np.linalg.solve(g, cYY)))
    quad = float(d.d4.dot(Y).dot(Y).dot(X).dot(X))
    return (d.F**2 / (gXX * gYY)) * (frame_sum - quad)


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


def cartan_formula_residual(frame: LevelFrames) -> float:
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


def two_curvature_residuals(norm: MinkowskiNorm, frame: LevelFrames) -> np.ndarray:
    """Values k_a k_b (1 - Q_n(e_a, e_b)) across principal direction pairs
    from different curvature groups; all must vanish for g = 2 isoparametric
    level sets.  e_a are the eigenvectors of the frame's hhat, sorted like k,
    in its tangent basis (Q is even in each, so their sign is free)."""
    groups = frame.groups
    if len(groups) < 2:
        return np.array([])
    k = frame.principal_curvatures
    labels = np.repeat(np.arange(len(groups)), [m for _, m in groups])
    vecs = np.linalg.eigh(frame.hhat)[1].T.dot(frame.tangent_basis)
    out = []
    for a in range(k.size):
        for b in range(a + 1, k.size):
            if labels[a] == labels[b]:
                continue
            Q = cartan_curvature_Q(norm, frame.normal, vecs[a], vecs[b])
            out.append(k[a] * k[b] * (1.0 - Q))
    return np.array(out)
