"""Gram-Schmidt frames for a y-dependent inner product, and row lengths."""

from __future__ import annotations

import numpy as np

from .errors import EigenFailure


def orthonormal_basis(g: np.ndarray, first: np.ndarray) -> np.ndarray:
    """The g-orthonormal complements of ``first``, one per row of a stack.

    For each inner product of g (N, n, n) and its row of ``first`` (N, n),
    ``first`` is normalized, the coordinate axis most aligned with it (in g)
    is dropped and the remaining coordinate vectors are Gram-Schmidt
    orthonormalized against it, in ascending order.  Returns the (N, n-1, n)
    stack of the n-1 tangent vectors, each row built as on its own.  A
    candidate collapses when g(v, v) of its projected axis v falls to 1e-24
    of its own |g_jj|, a test that does not change when g is scaled.
    """
    g, first = np.asarray(g, dtype=float), np.asarray(first, dtype=float)
    N, n = g.shape[0], g.shape[-1]
    gf = (g * first[:, None, :]).sum(axis=2)
    nrm2 = (first * gf).sum(axis=1)
    if not np.all(nrm2 > 0.0):
        raise EigenFailure("frame metric is not positive on the seed vector")
    r = np.sqrt(nrm2)[:, None]
    frame = [(first / r, gf / r)]  # (e, g e) of the vectors so far, each (N, n)
    diag = g.reshape(N, n * n)[:, :: n + 1]
    align = abs(frame[0][1]) / np.sqrt(np.maximum(diag, 1e-300))
    drop = align.argmax(axis=1)[:, None]
    candidates = np.arange(n - 1) + (np.arange(n - 1) >= drop)
    rows = np.arange(N)
    out = []
    for j in range(n - 1):
        v = np.zeros((N, n))
        v[rows, candidates[:, j]] = 1.0
        for e, ge in frame:
            v = v - (v * ge).sum(axis=1)[:, None] * e
        gv = (g * v[:, None, :]).sum(axis=2)
        nrm2 = (v * gv).sum(axis=1)
        if not np.all(nrm2 > 1e-24 * abs(diag[rows, candidates[:, j]])):
            raise EigenFailure("Gram-Schmidt collapsed; frame metric degenerate")
        r = np.sqrt(nrm2)[:, None]
        e = v / r
        frame.append((e, gv / r))
        out.append(e)
    return np.stack(out, axis=1)


def lengths(A: np.ndarray) -> np.ndarray:
    """The Euclidean length of each row of A (N, ...) over its trailing axes, m |A / m|
    with m = max |a| so that no square overflows; 0, inf and NaN as by ``np.hypot``."""
    A = A.reshape(len(A), -1)
    m = np.fmax.reduce(abs(A), axis=1)  # NaN only where every entry is
    with np.errstate(over="ignore", invalid="ignore"):
        q = A / np.where(m > 0.0, m, 1.0)[:, None]
        return np.where(m < np.inf, m * np.sqrt(np.vecdot(q, q)), m)
