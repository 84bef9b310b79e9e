"""Deterministic low-discrepancy direction sets on Euclidean spheres.

Direction sets drive level-set sampling, the subspace-condition check, the
tests' grid oracles and the volume quadratures.  Everything is
seeded and reproducible: the same ``(n, count, seed)`` always yields the same
array, independent of evaluation order.
"""

from __future__ import annotations

import functools
import math

import numpy as np

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def sphere_directions(n: int, count: int, seed: int = 0) -> np.ndarray:
    """``count`` unit vectors in R^n, quasi-uniform on the sphere.

    n = 2 uses an evenly spaced circle, n = 3 the Fibonacci spiral lattice,
    and higher dimensions a Kronecker (additive recurrence) sequence pushed
    through the Gaussian quantile and normalized.  ``seed`` rotates/offsets the
    lattice deterministically.
    """
    if n < 2:
        raise ValueError("sphere_directions requires n >= 2")
    if count < 1:
        raise ValueError("count must be positive")
    shift = math.modf(0.5 + seed * GOLDEN)[0]
    if n == 2:
        theta = 2.0 * math.pi * ((np.arange(count) + 0.5) / count + shift)
        return np.column_stack([np.cos(theta), np.sin(theta)])
    if n == 3:
        j = np.arange(count)
        z = 1.0 - (2.0 * j + 1.0) / count
        r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        # half-step offset keeps the spiral phase away from exact multiples
        # of pi/2, where degenerate norm families sit on coordinate planes
        phi = 2.0 * math.pi * np.mod((j + 0.5) * GOLDEN + shift, 1.0)
        return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
    from statistics import NormalDist  # about 5 ms to import, paid by n >= 4 alone
    alphas = _kronecker_alphas(n)
    j = np.arange(1, count + 1)[:, None]
    u = np.mod(shift + j * alphas[None, :], 1.0)
    u = np.clip(u, 1e-12, 1.0 - 1e-12)
    g = np.vectorize(NormalDist().inv_cdf, otypes=[float])(u)
    norms = np.linalg.norm(g, axis=1)
    norms[norms == 0.0] = 1.0
    return g / norms[:, None]


@functools.cache
def _kronecker_alphas(n: int) -> np.ndarray:
    # Irrational generators from the generalized golden ratio (unique real
    # root of x**(n+1) = x + 1), following Roberts' R_d sequence; computed
    # once per n and shared, so read-only.
    x = 1.5
    for _ in range(80):
        x = (1.0 + x) ** (1.0 / (n + 1))
    alphas = np.mod(1.0 / x ** np.arange(1, n + 1), 1.0)
    alphas.flags.writeable = False
    return alphas


def sphere_mean(values: np.ndarray) -> tuple[float, float]:
    """Quasi-Monte-Carlo mean over a direction set with an error estimate.

    The estimate compares the means of the two interleaved half-lattices; it
    is an indicator, not a bound, and needs at least two values.
    """
    values = np.asarray(values, dtype=float)
    if values.size < 2:
        raise ValueError("sphere_mean needs at least two values")
    full = float(values.mean())
    half_a = float(values[0::2].mean())
    half_b = float(values[1::2].mean())
    return full, abs(half_a - half_b)
