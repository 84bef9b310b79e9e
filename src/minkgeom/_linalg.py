"""Gram-Schmidt frames for a y-dependent inner product, and row lengths."""

from __future__ import annotations

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
    A stack of inner products g (N, n, n), with ``first`` (N, n), gives the
    stack (N, count, n), each row built as on its own.
    """
    g = np.asarray(g, dtype=float)
    first = None if first is None else np.asarray(first, dtype=float)
    single = g.ndim == 2
    if single:
        g = g[None]
        first = None if first is None else first[None]
    N, n = g.shape[0], g.shape[-1]
    frame = []  # (e, g e) of the vectors so far, each (N, n)
    if first is not None:
        gf = (g * first[:, None, :]).sum(axis=2)
        nrm2 = (first * gf).sum(axis=1)
        if not np.all(nrm2 > 0.0):
            raise EigenFailure("frame metric is not positive on the seed vector")
        r = np.sqrt(nrm2)[:, None]
        frame.append((first / r, gf / r))
        diag = g.reshape(N, n * n)[:, :: n + 1]
        align = abs(frame[0][1]) / np.sqrt(np.maximum(diag, 1e-300))
        drop = align.argmax(axis=1)[:, None]
        candidates = np.arange(n - 1) + (np.arange(n - 1) >= drop)
    else:
        candidates = np.broadcast_to(np.arange(n), (N, n))
    if basis_seed % 2 == 1:
        candidates = candidates[:, ::-1]
    rows = np.arange(N)
    out = []
    for j in range(candidates.shape[1]):
        v = np.zeros((N, n))
        v[rows, candidates[:, j]] = 1.0
        for e, ge in frame:
            v = v - (v * ge).sum(axis=1)[:, None] * e
        gv = (g * v[:, None, :]).sum(axis=2)
        nrm2 = (v * gv).sum(axis=1)
        if not np.all(nrm2 > 1e-24):
            raise EigenFailure("Gram-Schmidt collapsed; frame metric degenerate")
        r = np.sqrt(nrm2)[:, None]
        e = v / r
        frame.append((e, gv / r))
        out.append(e)
    basis = np.stack(out, axis=1)
    return basis[0] if single else basis


def lengths(A: np.ndarray) -> np.ndarray:
    """The Euclidean length of each row of A (N, ...) over its trailing axes,
    by ``np.hypot``, so no square overflows or underflows."""
    while A.ndim > 1:
        A = np.hypot.reduce(A, axis=-1)
    return A
