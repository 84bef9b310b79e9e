"""Gram-Schmidt frames for a y-dependent inner product."""

from __future__ import annotations

import math

import numpy as np

from .errors import EigenFailure


def orthonormal_basis(g: np.ndarray, first: np.ndarray | None = None,
                      basis_seed: int = 0) -> np.ndarray:
    """Orthonormal basis of R^n under the inner product g.

    If ``first`` is given it is normalized and used as the last basis vector;
    the coordinate axis most aligned with it (in g) is dropped and the
    remaining coordinate vectors are Gram-Schmidt orthonormalized against it.
    ``basis_seed`` selects a deterministic candidate ordering (0 ascending,
    1 descending), used to probe basis independence of spectra.

    Returns an array of shape (count, n): the n-1 tangent vectors when
    ``first`` is given (first excluded), else a full basis of n vectors.
    """
    g = np.asarray(g, dtype=float)
    n = g.shape[0]
    frame = []
    if first is not None:
        first = np.asarray(first, dtype=float)
        nrm2 = float(first.dot(g).dot(first))
        if nrm2 <= 0.0:
            raise EigenFailure("frame metric is not positive on the seed vector")
        frame.append(first / math.sqrt(nrm2))
        align = np.abs(g.dot(frame[0])) / np.sqrt(np.maximum(np.diag(g), 1e-300))
        drop = int(np.argmax(align))
        candidates = [i for i in range(n) if i != drop]
    else:
        candidates = list(range(n))
    if basis_seed % 2 == 1:
        candidates = candidates[::-1]
    out = []
    for i in candidates:
        v = np.zeros(n)
        v[i] = 1.0
        for e in frame:
            v = v - v.dot(g).dot(e) * e
        nrm2 = float(v.dot(g).dot(v))
        if nrm2 <= 1e-24:
            raise EigenFailure("Gram-Schmidt collapsed; frame metric degenerate")
        e = v / math.sqrt(nrm2)
        frame.append(e)
        out.append(e)
    return np.array(out)
