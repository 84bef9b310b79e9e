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
    gf = np.matvec(g, first)
    nrm2 = np.vecdot(first, gf)
    if not (nrm2 > 0.0).all():
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
            v = v - np.vecdot(v, ge)[:, None] * e
        gv = np.matvec(g, v)
        nrm2 = np.vecdot(v, gv)
        if not (nrm2 > 1e-24 * abs(diag[rows, candidates[:, j]])).all():
            raise EigenFailure("Gram-Schmidt collapsed; frame metric degenerate")
        r = np.sqrt(nrm2)[:, None]
        e = v / r
        frame.append((e, gv / r))
        out.append(e)
    return np.stack(out, axis=1)


def lengths(A: np.ndarray) -> np.ndarray:
    """The Euclidean length of each row of A (N, ...) over its trailing axes: the
    plain root of its sum of squares where that lies in [2^-960, 2^960], so that
    no square overflows or underflows unseen, else ``scaled_lengths``; a row's
    length depends on that row alone."""
    A = A.reshape(len(A), -1)
    with np.errstate(over="ignore"):
        s = np.vecdot(A, A)
    plain = (s >= 2.0**-960) & (s <= 2.0**960)  # False at a NaN
    if plain.all():
        return np.sqrt(s)
    return np.where(plain, np.sqrt(s), scaled_lengths(A))


def scaled_lengths(A: np.ndarray) -> np.ndarray:
    """The Euclidean length of each row of A (N, ...) over its trailing axes, m |A / m|
    with m = max |a| so that no square overflows; 0, inf and NaN as by ``np.hypot``."""
    A = A.reshape(len(A), -1)
    m = np.fmax.reduce(abs(A), axis=1)  # NaN only where every entry is
    with np.errstate(over="ignore", invalid="ignore"):
        q = A / np.where(m > 0.0, m, 1.0)[:, None]
        return np.where(m < np.inf, m * np.sqrt(np.vecdot(q, q)), m)
