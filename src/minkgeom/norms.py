"""Minkowski norm families and their derivative tensors.

A Minkowski norm F on R^n is positively 1-homogeneous, smooth away from the
origin, and strongly convex: the fundamental tensor

    g_ij(y) = 1/2 d^2(F^2)/dy^i dy^j

is positive definite for every y != 0.  Everything in this package is driven
by the derivatives of G = F^2/2 up to fourth order:

    G_i  = L_i(y)        the Legendre transform of y,
    G_ij = g_ij(y)       the fundamental tensor,
    G_ijk  = 2 C_ijk     twice the Cartan tensor,
    G_ijkl = 2 Ccal_ijkl twice the Cartan-tensor derivative.

Three derivative strategies are supported per norm:

* ``analytic``  -- hand-derived closed forms (Euclidean, Randers, k-th root);
  a family without them (alpha-beta) rejects it with ``NotInDomain``.
* ``taylor``    -- truncated multivariate Taylor (jet) arithmetic, exact to
  roundoff for every family; the generic path and the cross-check.
* ``fd``        -- central finite differences with Richardson extrapolation;
  an independent, lower-accuracy check.

A family writes ``_value``, ``_analytic`` at orders <= 2,
``_legendre_inverse`` and ``_dual_value`` (F*, whose base body is F at the
Legendre preimage) once, over the last axis: one body takes a point (n,)
or the rows of an (N, n) array, and a row gets the bits of its point.  The
rows services that ``calculus.level_geometry`` reads live on the base class
alone: ``_values``, ``_derivative_rows`` (the bundle of order 1 or 2; on
taylor one row jet), ``_dual_rows`` (the Legendre preimage with F and g
there) and ``_dual_values`` scale each row by the rule of ``_as_vector``
(``_as_rows``) and call those bodies, so every family has whole-array rows
on every strategy: the fd stencil too is one body, each offset evaluated on
all rows at once.  The alpha-beta ``_legendre_inverse`` solves its angle
by one bracketed Newton body from a start table, on a point's floats or rows.

Norms are immutable after construction and all operations are pure, except
that ``derivatives`` keeps its last bundle for a repeat call at the same y and
an order no higher; the arrays of every bundle it returns are read-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _taylor
from ._linalg import lengths
from .errors import (BadDimension, DegenerateMetric, NoConvergence, NotInDomain, ZeroCovector,
                     ZeroVector)

ANGLE_MAX_ITER = 100  # image evaluations of the alpha-beta Legendre angle solve
ANGLE_NODES = 129     # nodes of the alpha-beta angle start table on [0, pi]

STRATEGIES = ("analytic", "taylor", "fd")


@dataclass(frozen=True)
class Derivatives:
    """Derivative bundle of G = F^2/2 at a fixed direction y, or at each row
    of an (N, n) array (a leading row axis on every field, order <= 2).

    ``d1`` is always present; ``d2``, ``d3`` and ``d4`` are present from
    orders 2, 3 and 4 and None below them.
    """

    F: float
    d1: np.ndarray
    d2: np.ndarray | None
    d3: np.ndarray | None = None
    d4: np.ndarray | None = None


def _as_vector(y, norm: "MinkowskiNorm", error=ZeroVector) -> tuple:
    """(y / s, s): the checked vector (or covector) of ``norm`` and its scale s.

    Rejects a wrong shape (BadDimension), a non-finite entry or y = 0
    (``error``).  s is 1.0 when |y| (``math.hypot``: no overflow, no warning)
    lies in ``norm._window``, else the power of two with max|y_i| / s in
    [1, 2), so y / s is exact and a result of degree k scales back as s^k
    (``_rescale``).
    """
    y = np.asarray(y, dtype=float)
    n, window = norm.dim, norm._window
    if y.shape == (n,) and window[0] <= math.hypot(*y.tolist()) <= window[1]:
        return y, 1.0
    kind = "covector" if error is ZeroCovector else "vector"
    if y.shape != (n,):
        raise BadDimension(f"expected a {kind} of length {n}, got shape {y.shape}")
    if not np.all(np.isfinite(y)):
        raise error(f"{kind} has non-finite entries")
    m = float(abs(y).max())
    if m == 0.0:
        raise error(f"{kind} is zero; F is not smooth at 0")
    s = math.ldexp(1.0, math.frexp(m)[1] - 1)
    return y / s, s


def _as_rows(Y: np.ndarray, norm: "MinkowskiNorm") -> tuple:
    """(Y / s, s) for the rows of Y (N, n), s per row by the rule of ``_as_vector``.

    A zero or non-finite row gets s = NaN, so every result of its row is NaN.
    When every row lies in the window, s is None and Y comes back uncopied
    (callers only read it), so that no result is multiplied by 1 (``_scaled``).
    """
    lo, hi = norm._window
    with np.errstate(over="ignore", invalid="ignore"):
        r = np.sqrt(np.vecdot(Y, Y))
        inside = (r >= lo) & (r <= hi)  # False at a NaN length
        if inside.all():
            return np.asarray(Y, dtype=float), None
        m = abs(Y).max(axis=1)
        s = np.where(inside, 1.0, np.ldexp(1.0, np.frexp(m)[1] - 1))
        s[~(np.isfinite(m) & (m > 0.0))] = np.nan
        return Y / s[:, None], s


def _scaled(x, s):
    """x times the row scales s of ``_as_rows``, per row (over x's first axis);
    x itself when s is None."""
    return x if s is None else x * s.reshape(s.shape + (1,) * (x.ndim - 1))


def _rescale(x, s: float, degree: int):
    """x s^degree for a power of two s: exact, or inf or 0 out of range."""
    if s != 1.0:
        with np.errstate(over="ignore", under="ignore"):
            for _ in range(abs(degree)):
                x = x * s if degree > 0 else x / s
    return x


class MinkowskiNorm:
    """Base class for Minkowski norm families."""

    family = "abstract"
    _last: tuple | None = None  # (y / s bytes, s, order, Derivatives) of the last call
    # |y| in [2^-64, 2^64] is computed directly: every power of |y| formed up to
    # order 4 (|y|^-9 in the alpha-beta jets, alpha^3 in the Randers tensors,
    # |y|^(2-4k) in the k-th root ones, which narrow it) stays within 2^+-896
    _window = (2.0**-64, 2.0**64)

    def __init__(self, dim: int, strategy: str = "analytic"):
        if dim < 2:
            raise BadDimension("Minkowski norms need dimension >= 2")
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}; use one of {STRATEGIES}")
        if strategy == "analytic" and not hasattr(self, "_analytic"):
            raise NotInDomain(f"the {self.family} family has no analytic derivatives")
        self.dim = int(dim)
        self.strategy = strategy
        self._eye = np.eye(self.dim)  # never written; np.eye costs 0.7 us a call

    # -- family hooks --------------------------------------------------------

    def _value(self, y: np.ndarray) -> float:
        raise NotImplementedError

    def _jet_F(self, sp: "_taylor.JetSpace", y: np.ndarray) -> "_taylor.Jet":
        """The jet of F around y in the space ``sp``."""
        raise NotImplementedError

    def _legendre_inverse(self, xi: np.ndarray) -> np.ndarray:
        """The vector y with L(y) = xi."""
        raise NotImplementedError

    def _dual_value(self, xi: np.ndarray):
        """F*(xi) = F(L^{-1}(xi)) over the last axis of xi."""
        return self._value(self._legendre_inverse(xi))

    # The dual geometry: a family with a closed form overrides these generic
    # bodies.

    def _dual_fundamental_tensor(self, xi: np.ndarray, g=None) -> np.ndarray:
        """g*(xi), the inverse of g at the Legendre preimage of xi, for a covector
        or rows; ``g``, when given, is g there, which a closed form does not read."""
        if g is None:
            g = self.derivatives(self._legendre_inverse(xi), order=2).d2
        return np.linalg.inv(g)

    def _subspace_dual(self, m: int) -> "MinkowskiNorm":
        """Ftilde on the first m coordinates.  F restricted, exact only when L
        preserves that coordinate subspace."""
        return self.restricted(m)

    # Stacked rows: the points of the levels as one (N, n) array.  A zero or
    # non-finite row gives NaN in every result of its row.

    def _values(self, Y: np.ndarray) -> np.ndarray:
        """F at each row of Y, NaN where F is not positive."""
        Y, s = _as_rows(Y, self)
        F = _scaled(self._value(Y), s)
        return np.where(F > 0.0, F, np.nan)

    def _derivative_rows(self, Y: np.ndarray, order: int = 2) -> tuple:
        """(F, d1, d2) of the bundle of ``order`` (1 or 2) at each row of Y,
        shapes (N,), (N, n) and (N, n, n); d2 is None at order 1."""
        Y, s = _as_rows(Y, self)
        d = self._derivatives(Y, order)
        return _scaled(d.F, s), _scaled(d.d1, s), d.d2

    def _dual_rows(self, Xi: np.ndarray) -> tuple:
        """(y, F(y), g at y, xi / s) with y = L^{-1}(xi) for each covector row
        of Xi, shapes (N, n), (N,), (N, n, n) and (N, n): the last is each row
        at the scale it was inverted at, where a quantity of degree 0 such as
        g* can be read.  The caller makes the Cholesky test of g."""
        Xi, s = _as_rows(Xi, self)
        Y = self._legendre_inverse(Xi)
        F, _, g = self._derivative_rows(Y)
        return _scaled(Y, s), _scaled(F, s), g, Xi

    def _dual_values(self, Xi: np.ndarray) -> np.ndarray:
        """F*(xi) at each covector row of Xi (``_dual_value``), NaN where it is
        not positive; no g."""
        Xi, s = _as_rows(Xi, self)
        F = _scaled(self._dual_value(Xi), s)
        return np.where(F > 0.0, F, np.nan)

    # -- public services -----------------------------------------------------

    def value(self, y) -> float:
        """F(y) = s F(y / s), s the scale of ``_as_vector``, for finite y != 0."""
        y, s = _as_vector(y, self)
        F = s * float(self._value(y))
        if not F > 0.0:
            raise NotInDomain(f"F(y) = {F} is not positive; norm is invalid at y")
        return F

    __call__ = value

    def legendre(self, y) -> np.ndarray:
        """Legendre image L(y)_i = F F_{y^i} = dG/dy^i; 1-homogeneous."""
        return self.derivatives(y, order=1).d1

    def fundamental_tensor(self, y) -> np.ndarray:
        """g_ij(y), symmetric positive definite for y != 0."""
        g = self.derivatives(y, order=2).d2
        try:
            np.linalg.cholesky(g)
        except np.linalg.LinAlgError as exc:
            raise DegenerateMetric(
                f"fundamental tensor not positive definite at y={np.asarray(y)!r}"
            ) from exc
        return g

    def derivatives(self, y, order: int = 2) -> Derivatives:
        """The bundle of G = F^2/2 at y up to ``order``, arrays read-only.

        It is computed at y / s and scaled back by the degrees 1, 1, 0, -1, -2
        of F, d1 ... d4 (``_as_vector``).  The norm keeps its last bundle: a call
        at the same y and an order no higher returns it, truncated to that order.
        """
        y, s = _as_vector(y, self)
        key = y.tobytes()
        last = self._last
        if last is not None and last[0] == key and last[1] == s and last[2] >= order:
            d = last[3]
            if last[2] == order:
                return d
            return Derivatives(d.F, d.d1, d.d2 if order >= 2 else None,
                               d.d3 if order >= 3 else None)
        d = self._derivatives(y, order)
        if s != 1.0:
            d = Derivatives(*(a if a is None else _rescale(a, s, k) for a, k in
                              zip((d.F, d.d1, d.d2, d.d3, d.d4), (1, 1, 0, -1, -2))))
        for a in (d.d1, d.d2, d.d3, d.d4):
            if a is not None:
                a.flags.writeable = False
        self._last = (key, s, order, d)  # one store: a racing thread only misses
        return d

    def _derivatives(self, y: np.ndarray, order: int) -> Derivatives:
        if self.strategy == "fd":
            return self._fd(y, order)
        if self.strategy == "analytic":
            return self._analytic(y, order)
        return self._taylor(y, order)

    # -- shared machinery ------------------------------------------------------

    def _taylor(self, y: np.ndarray, order: int) -> Derivatives:
        sp = _taylor.space(self.dim, order)
        F = self._jet_F(sp, y)
        G = F * F * 0.5
        tensors = G.derivative_tensors(range(1, order + 1))
        return Derivatives(F.value, *tensors, *[None] * (4 - order))

    def _fd(self, y: np.ndarray, order: int) -> Derivatives:
        # the steps are fixed multiples of |y|, one per row of rows
        scale = np.sqrt(np.vecdot(y, y))

        def G(z):
            v = self._value(z)
            return 0.5 * (v * v)  # not v ** 2, so that a point rounds like the rows

        def hess_at(z):
            h = 2e-2 * scale
            return (4 * fd_hessian(G, z, 0.5 * h) - fd_hessian(G, z, h)) / 3

        def third(z):
            return fd_jacobian(hess_at, z, 2e-3 * scale)

        d1 = fd_gradient(G, y, 1e-2 * scale)
        d2 = hess_at(y) if order >= 2 else None
        d3 = third(y) if order >= 3 else None
        d4 = fd_jacobian(third, y, 5e-3 * scale) if order >= 4 else None
        return Derivatives(F=self._value(y), d1=d1, d2=d2, d3=d3, d4=d4)

    # -- structural helpers ----------------------------------------------------

    def restricted(self, m: int) -> "MinkowskiNorm":
        """The restriction F|_{first m coordinates}, as a norm on R^m."""
        raise BadDimension(f"{self.family} norm does not support restriction")

    def rotated(self, Q: np.ndarray) -> "MinkowskiNorm":
        """The norm y |-> F(Q y) for orthogonal Q, when the family supports it."""
        raise BadDimension(f"{self.family} norm is not closed under rotation")

    def __repr__(self):
        return f"<{type(self).__name__} dim={self.dim} strategy={self.strategy}>"


class EuclideanNorm(MinkowskiNorm):
    family = "euclidean"

    def _value(self, y):
        return np.sqrt(np.vecdot(y, y))

    def _jet_F(self, sp, y):
        return _taylor.Jet.norm_squared(sp, y).sqrt()

    def _analytic(self, y, order):
        n = self.dim
        F = self._value(y)
        return Derivatives(
            F=F,
            d1=y.copy(),
            d2=np.where(np.isnan(F)[..., None, None], np.nan, self._eye) if order >= 2 else None,
            d3=np.zeros((n, n, n)) if order >= 3 else None,
            d4=np.zeros((n, n, n, n)) if order >= 4 else None,
        )

    def _legendre_inverse(self, xi):
        return xi.copy()

    _dual_value = _value  # F* is |xi|

    def _dual_fundamental_tensor(self, xi, g=None):
        return np.broadcast_to(self._eye, xi.shape + (self.dim,)).copy()

    def restricted(self, m):
        _check_subdim(m, self.dim)
        return EuclideanNorm(m, strategy=self.strategy)

    def rotated(self, Q):
        return self


class RandersNorm(MinkowskiNorm):
    """F = |y| + b.y with ||b|| < 1 (Euclidean alpha).

    ||b|| < 1 is exactly strong convexity, so the constructor samples no
    directions.

    The dual norm is again of Randers type, F*(xi) = sqrt(xi a* xi) + b*.xi
    with a* = (lam I + b b^T) / lam^2 and b* = -b / lam, lam = 1 - |b|^2;
    ``astar`` and ``bstar`` hold these coefficients.
    """

    family = "randers"

    def __init__(self, b, strategy: str = "analytic"):
        b = np.asarray(b, dtype=float)
        super().__init__(b.size, strategy)
        bnorm = np.linalg.norm(b)
        if not bnorm < 1.0:
            raise NotInDomain(f"Randers requires ||b|| < 1, got {bnorm}")
        self.b = b
        self.lam = float(1.0 - bnorm**2)
        self.astar = (self.lam * np.eye(b.size) + np.outer(b, b)) / self.lam**2
        self.bstar = -b / self.lam

    def _value(self, y):
        return np.sqrt(np.vecdot(y, y)) + np.vecdot(y, self.b)

    def _jet_F(self, sp, y):
        return _taylor.Jet.norm_squared(sp, y).sqrt() + _taylor.Jet.linear(sp, y, self.b)

    def _analytic(self, y, order):
        # G = alpha^2/2 + alpha beta + beta^2/2, beta linear: above order 2 only
        # alpha beta is left, and with ell = y/alpha, h = I - ell ell^T and the
        # derivatives of alpha (Chern & Shen, Riemann-Finsler Geometry, 2005)
        # each tensor is one outer product summed over its index placements
        b = self.b
        alpha = np.sqrt(np.vecdot(y, y))
        ell = y / alpha[..., None]
        beta = np.vecdot(y, b)
        F = alpha + beta
        Fi = ell + b
        d1 = F[..., None] * Fi
        if order < 2:
            return Derivatives(F=F, d1=d1, d2=None)
        ll = ell[..., :, None] * ell[..., None, :]
        h = self._eye - ll
        g = Fi[..., :, None] * Fi[..., None, :] + (F / alpha)[..., None, None] * h
        d3 = d4 = None
        if order >= 3:
            # d3 = h (x) v at its three placements, v = (b - (beta/alpha) ell)/alpha
            T = h[:, :, None] * ((b - (beta / alpha) * ell) / alpha)
            d3 = T + T.transpose(0, 2, 1) + T.transpose(2, 0, 1)
            if order >= 4:
                # d4 = h (x) N + N (x) h over the three pairings of its indices
                lb = ell[:, None] * (b / alpha**2)
                c = beta / alpha**3
                N = (2.0 * c) * ll - (lb + lb.T) - (0.5 * c) * h
                U = h[:, :, None, None] * N + N[:, :, None, None] * h
                d4 = U + U.transpose(0, 2, 1, 3) + U.transpose(0, 3, 2, 1)
        return Derivatives(F=F, d1=d1, d2=g, d3=d3, d4=d4)

    def _dual_parts(self, xi):
        """(a* xi, alpha*(xi), F*(xi)) over the last axis of xi."""
        astar_xi = np.matvec(self.astar, xi)
        alpha_star = np.sqrt(np.vecdot(xi, astar_xi))
        return astar_xi, alpha_star, alpha_star + np.vecdot(xi, self.bstar)

    def _dual_value(self, xi):
        return self._dual_parts(xi)[2]

    def _legendre_inverse(self, xi):
        _, alpha_star, fstar = self._dual_parts(xi)
        return (fstar / (self.lam * alpha_star))[..., None] * (xi - fstar[..., None] * self.b)

    def _dual_fundamental_tensor(self, xi, g=None):
        astar_xi, alpha_star, fstar = self._dual_parts(xi)
        al = astar_xi / alpha_star[..., None]
        fs = al + self.bstar
        return (fs[..., :, None] * fs[..., None, :] + (fstar / alpha_star)[..., None, None]
                * (self.astar - al[..., :, None] * al[..., None, :]))

    def subspace_scale(self, m: int) -> float:
        """sqrt(lam + |bbar|^2), bbar = b on the first m coordinates.

        Ftilde is this constant times the Randers norm with covector
        bbar / constant; the F*-cylinder of radius r is
        constant |xbar| + beta(xbar) = r.
        """
        bbar = self.b[:m]
        return float(np.sqrt(self.lam + bbar @ bbar))

    def _subspace_dual(self, m):
        c = self.subspace_scale(m)
        bbar = self.b[:m]
        if abs(c - 1.0) < 1e-14:
            return self.restricted(m)
        if np.linalg.norm(bbar) == 0.0:
            return ScaledNorm(EuclideanNorm(m, strategy=self.strategy), c)
        return ScaledNorm(RandersNorm(bbar / c, strategy=self.strategy), c)

    def restricted(self, m):
        _check_subdim(m, self.dim)
        return RandersNorm(self.b[:m], strategy=self.strategy)

    def rotated(self, Q):
        Q = np.asarray(Q, dtype=float)
        return RandersNorm(Q.T @ self.b, strategy=self.strategy)


class KthRootNorm(MinkowskiNorm):
    """F = (sum_i y_i^k)^(1/k) for even k > 2.

    Smooth and strongly convex away from the coordinate hyperplanes; the
    fundamental tensor degenerates as any coordinate tends to zero, which is
    inherent to the family.  The constructor checks k alone.
    """

    family = "kth_root"

    def __init__(self, k: int, dim: int, strategy: str = "analytic"):
        if k <= 2 or k % 2 != 0:
            raise NotInDomain(f"k-th root norm needs even k > 2, got {k}")
        super().__init__(dim, strategy)
        self.k = int(k)
        e = 896 // (4 * self.k - 2)  # the order-4 tensor has S^(2/k-4) ~ |y|^(2-4k)
        self._window = (2.0**-e, 2.0**e)
        # H(S) = S^w / 2, w = 2/k, has H^(j)(S) = c_j S^(w - j), j = 0 ... 4
        w = 2.0 / self.k
        self._h = (np.cumprod(np.r_[0.5, w - np.arange(4)]), w - np.arange(5))

    def _value(self, y):
        # the ufunc, not a scalar's **, so that a point rounds like the rows
        return np.power((y**self.k).sum(axis=-1), 1.0 / self.k)

    def _jet_F(self, sp, y):
        ys = _taylor.Jet.variables(sp, y)
        s = ys[0] ** self.k
        for v in ys[1:]:
            s = s + v**self.k
        return s ** (1.0 / self.k)

    def _analytic(self, y, order):
        # Faa di Bruno for G = H(S), S = sum_i y_i^k: the order-m tensor sums,
        # over the partitions of its m indices, H^(number of blocks) times one
        # derivative of S per block; those derivatives are diagonal.  H^(j) is
        # H[..., j], a number at a point, where orders 3 and 4 index H[j].
        k, n = self.k, self.dim
        S = (y**k).sum(axis=-1)
        H = self._h[0] * S[..., None] ** self._h[1]
        Sv = k * y ** (k - 1)
        d1 = H[..., 1, None] * Sv
        F = np.power(S, 1.0 / k)
        if order < 2:
            return Derivatives(F=F, d1=d1, d2=None)
        D2 = self._eye * (k * (k - 1) * y ** (k - 2))[..., None, :]
        v2 = Sv[..., :, None] * Sv[..., None, :]
        d2 = H[..., 2, None, None] * v2 + H[..., 1, None, None] * D2
        d3 = d4 = None
        if order >= 3:
            diag = np.arange(n)
            D3 = np.zeros((n, n, n))
            D3[diag, diag, diag] = k * (k - 1) * (k - 2) * y ** (k - 3)
            # the blocks {2, 1} and {1, 1, 1}: B (x) Sv at its three placements
            t = ((H[3] / 3.0) * v2 + H[2] * D2)[:, :, None] * Sv
            d3 = t + t.transpose(0, 2, 1) + t.transpose(2, 0, 1) + H[1] * D3
            if order >= 4:
                # the blocks {2, 1, 1}, {2, 2} and {1, 1, 1, 1}: U + U_cdab over
                # the three pairings of the indices, U = D2 (x) (H3 v2 + H2 D2 / 2)
                # + (H4 / 6) v2 (x) v2
                W = H[3] * v2 + 0.5 * H[2] * D2
                U = D2[:, :, None, None] * W + v2[:, :, None, None] * ((H[4] / 6.0) * v2)
                U = U + U.transpose(2, 3, 0, 1)
                # the blocks {3, 1}: D3 (x) Sv at the four places of Sv
                T = D3[:, :, :, None] * (H[2] * Sv)
                d4 = (U + U.transpose(0, 2, 1, 3) + U.transpose(0, 3, 2, 1)
                      + T + T.transpose(0, 1, 3, 2) + T.transpose(0, 3, 1, 2)
                      + T.transpose(3, 0, 1, 2))
                s4 = k * (k - 1) * (k - 2) * (k - 3) * y ** (k - 4)
                d4[diag, diag, diag, diag] += H[1] * s4
        return Derivatives(F=F, d1=d1, d2=d2, d3=d3, d4=d4)

    def _legendre_inverse(self, xi):
        k = self.k
        a = np.abs(xi)
        sstar = (a ** (k / (k - 1.0))).sum(axis=-1)[..., None]
        return np.sign(xi) * a ** (1.0 / (k - 1.0)) * sstar ** ((k - 2.0) / k)

    def _dual_value(self, xi):
        # the l^q norm, q = k/(k-1): F(L^-1(xi)) = S*^(1/k) S*^((k-2)/k)
        k = self.k
        return np.power((np.abs(xi) ** (k / (k - 1.0))).sum(axis=-1), (k - 1.0) / k)

    def _dual_fundamental_tensor(self, xi, g=None):
        # F* is the l^q norm, q = k/(k-1); the Hessian of F*^2/2 with
        # S* = sum |xi_i|^q and v_i = sign(xi_i) |xi_i|^(q-1) is
        # S*^(-2/k) ((2 - q) v v^T + (q - 1) S* diag |xi_i|^(q-2))
        k = self.k
        a = np.abs(xi)
        if not (a > 0.0).all():
            # g at the preimage is singular there, as ``fundamental_tensor`` finds
            raise DegenerateMetric(f"g* of the k-th root norm is unbounded on a coordinate "
                                   f"hyperplane: xi_{int(a.argmin()) % self.dim} = 0")
        sstar = (a ** (k / (k - 1.0))).sum(axis=-1)[..., None]
        v = np.sign(xi) * a ** (1.0 / (k - 1.0))
        return sstar[..., None] ** (-2.0 / k) * (
            ((k - 2.0) / (k - 1.0)) * (v[..., :, None] * v[..., None, :])
            + self._eye * (sstar / (k - 1.0) * a ** (-(k - 2.0) / (k - 1.0)))[..., None, :])

    def restricted(self, m):
        _check_subdim(m, self.dim)
        return KthRootNorm(self.k, m, strategy=self.strategy)


class PolynomialProfile:
    """Profile phi(s) = sum_j coeffs[j] s^j with exact derivatives, evaluated
    by Horner from 0.0: the float64 operations of ``np.polyval``, in order.
    An array of s gives an array per derivative, elementwise the same bits."""

    def __init__(self, coeffs):
        self.coeffs = tuple(float(c) for c in coeffs)
        rows = []
        c = np.array(self.coeffs)
        for _ in range(5):
            rows.append(tuple(float(v) for v in c[::-1]))
            c = c[1:] * np.arange(1, c.size) if c.size > 1 else np.array([])
        self._rows = tuple(rows)

    def phi(self, s):
        return _horner(self._rows[0], s if isinstance(s, np.ndarray) else float(s))

    def derivatives(self, s, order: int = 4):
        """phi, phi', ..., the derivative of the given order (at most 4), at s."""
        if not isinstance(s, np.ndarray):
            s = float(s)
        return tuple(_horner(row, s) for row in self._rows[:order + 1])


def _horner(row, s):
    v = 0.0
    for c in row:
        v = v * s + c
    return v


# The operations of the alpha-beta angle solve that differ between a point's
# floats (index 0) and rows (index 1): cos, sin, atan2, hypot, ulp,
# select(mask, a, b), any and the numbers of a start table column
_ANGLE_OPS = ((math.cos, math.sin, math.atan2, math.hypot, math.ulp,
               lambda on, a, b: a if on else b, bool, np.ndarray.tolist),
              (np.cos, np.sin, np.arctan2, np.hypot, np.spacing, np.where,
               np.logical_or.reduce, lambda a: a))


class AlphaBetaNorm(MinkowskiNorm):
    """F = alpha phi(beta/alpha) with alpha Euclidean and beta = b y^1.

    A profile provides ``coeffs``, the power-series coefficients of phi
    (lowest first), ``phi(s)`` and ``derivatives(s, order)``, phi and its
    derivatives up to that order (at most 4) at s, for a number s or
    elementwise for an array.  Values read phi alone; the derivative path is
    the jet of alpha^2 composed once with t^-1/2, giving
    F = (alpha^2 / alpha) phi(beta / alpha).  The Legendre inverse is a solve
    for one angle: L(y) lies in span{y, e1} (Chern & Shen, Riemann-Finsler
    Geometry, 1.3), so the preimage of xi lies in the plane of xi and e1.
    ``_legendre_inverse`` solves it by one bracketed Newton body, on a
    point's floats or on rows, from the cubic Hermite inverse of a table of
    the image angle at ANGLE_NODES angles that the constructor builds.

    The constructor decides validity exactly and samples no directions.  With
    s = beta/alpha, which covers [-|b|, |b|], g has the eigenvalue
    phi (phi - s phi') off span{y, e1} (n >= 3) and
    det g = phi^(n+1) (phi - s phi')^(n-2) (phi - s phi' + (b^2 - s^2) phi''),
    so F is a Minkowski norm exactly when, on |s| <= |b|,

        phi > 0,   phi - s phi' > 0 (n >= 3),   phi - s phi' + (b^2 - s^2) phi'' > 0

    (Chern & Shen, Lemma 1.1.2).  n = 2 has no direction off span{y, e1}, so
    it needs only the first and the last.
    """

    family = "alpha_beta"

    def __init__(self, profile, b: float, dim: int, strategy: str = "taylor"):
        super().__init__(dim, strategy)
        self.profile = profile
        self.beta_vec = np.zeros(dim)
        self.beta_vec[0] = float(b)
        self.b = float(b)
        self._check_profile()
        self._angle_table = self._angle_start_table()

    def _check_profile(self):
        """Raise unless the three conditions of the class docstring hold.

        Each is a polynomial in s, whose minimum on [-|b|, |b|] lies at an
        end or at a root of its derivative; the real parts of all those roots
        are tried, a superset of the real ones.  A message names the failed
        condition and an s where it fails.  The last condition implies the
        second (h = phi - s phi' has h' = -s phi'', so the last equals h at an
        interior minimum of h, or is at most h there at s = 0); the second is
        tried first so that the message names the eigenvalue phi h.
        """
        b = self.b
        r = abs(b)
        if not math.isfinite(b):
            raise NotInDomain(f"alpha-beta needs a finite b, got {b}: s = b y^1 / alpha "
                              "is then not finite")
        c = np.array(self.profile.coeffs or (0.0,), dtype=float)
        if not np.all(np.isfinite(c)):
            raise NotInDomain(f"phi > 0 fails at s = {-r!r}: phi has the non-finite "
                              f"coefficients {c.tolist()}")
        # s^m coefficients: phi - s phi' has (1 - m) c_m, and (b^2 - s^2) phi''
        # adds b^2 (m + 1)(m + 2) c_(m+2) - m (m - 1) c_m
        m = np.arange(c.size)
        c2 = (1 - m * m) * c
        c2[:-2] += b * b * m[2:] * (m[2:] - 1) * c[2:]
        conditions = [("phi > 0", c, NotInDomain)]
        if self.dim >= 3:
            conditions.append(("phi - s phi' > 0", (1 - m) * c, DegenerateMetric))
        conditions.append(("phi - s phi' + (b^2 - s^2) phi'' > 0", c2, DegenerateMetric))
        for name, coeffs, error in conditions:
            p = coeffs[::-1]
            crit = np.roots(np.polyder(p)).real
            s = np.concatenate(([-r, r], crit[np.abs(crit) < r]))
            v = np.polyval(p, s)
            i = int(np.argmin(v))
            if not v[i] > 0.0:
                raise error(f"{name} fails at s = {float(s[i])!r}, where the left side "
                            f"is {float(v[i])!r} (b = {b!r}, |s| <= |b|)")

    def _value(self, y):
        alpha = np.sqrt(np.vecdot(y, y))
        return alpha * self.profile.phi(self.b * y[..., 0] / alpha)

    def _jet_F(self, sp, y):
        a2 = _taylor.Jet.norm_squared(sp, y)
        inv = a2 ** -0.5
        s = _taylor.Jet.linear(sp, y, self.beta_vec) * inv
        phi = s.compose_univariate(self.profile.derivatives(s.value, sp.order))
        return (a2 * inv) * phi

    def _image(self, c, s):
        """(i1, i2, slope) for c = cos t, s = sin t, numbers or rows:
        L(cos t e1 + sin t u) = (i1, i2) in the (e1, u) plane, and ``slope()``
        dTheta/dt of its angle Theta = atan2(i2, i1), computed when called."""
        b = self.b
        phi, d1, d2 = self.profile.derivatives(b * c, 2)
        p = phi * (phi - b * c * d1)  # P
        i1, i2 = p * c + b * phi * d1, p * s

        def slope():
            # dP/dt and d(phi phi')/dt, with d(b cos t)/dt = -b sin t
            du = -b * s
            dq = (d1 * d1 + phi * d2) * du
            dp = phi * d1 * du - b * c * dq
            di1 = dp * c - p * s + b * dq
            di2 = dp * s + p * c
            return (i1 * di2 - i2 * di1) / (i1 * i1 + i2 * i2)

        return i1, i2, slope

    def _angle_start_table(self) -> tuple:
        """(Theta at the inner nodes, cells), the start table of ``_legendre_inverse``
        from one ``_image`` of ANGLE_NODES angles t_k on [0, pi]: column k of cells
        holds Theta_k, 1 / (Theta_k+1 - Theta_k), t_k, t_k+1 and a1, a2, a3 of the
        cubic Hermite inverse t = t_k + u (a1 + u (a2 + u a3)) in u = (Theta -
        Theta_k) / (Theta_k+1 - Theta_k), which meets t and dt/dTheta at both ends."""
        t = np.linspace(0.0, math.pi, ANGLE_NODES)
        c, s = np.cos(t), np.sin(t)
        i1, i2, slope = self._image(c, s)
        theta = np.arctan2(i2, i1)
        dtheta, h, dt = slope(), np.diff(theta), np.diff(t)
        m0, m1 = h / dtheta[:-1], h / dtheta[1:]  # dt/du at the ends of each cell
        return theta[1:-1], np.array([theta[:-1], 1.0 / h, t[:-1], t[1:], m0,
                                      3.0 * dt - 2.0 * m0 - m1, m0 + m1 - 2.0 * dt])

    def _legendre_inverse(self, xi):
        # y = alpha (cos t e1 + sin t u), u the unit part of xi off e1, has
        # L(y) = alpha image(cos t, sin t).  The angle Theta of the image from
        # e1 increases from 0 to pi with t, so t is the one root of its gap to
        # psi, the angle of xi, on [0, pi]: Newton with dTheta/dt from phi,
        # phi' and phi'', from the Hermite inverse of the start table's cell
        # of psi, whose ends bracket the root, and the midpoint of the bracket
        # [lo, hi] of the gap's signs where a step leaves it (Press et al.,
        # Numerical Recipes, 3rd ed., 9.4).  It stops within 2 ulp of psi or
        # once the bracket holds no other float.  A point runs on floats and
        # rows on arrays (``_ANGLE_OPS``); a point not met within
        # ANGLE_MAX_ITER evaluations raises NoConvergence, a row is NaN.
        rows = xi.ndim > 1
        cos, sin, atan2, hypot, ulp, select, any_, floats = _ANGLE_OPS[rows]
        b = self.b
        if rows:
            x1, perp = xi[:, 0], lengths(xi[:, 1:])
            psi = np.arctan2(perp, x1)
        else:
            x1, perp = float(xi[0]), math.hypot(*xi[1:])
            psi = float(np.arctan2(perp, x1))  # the row's psi, which math.atan2 can miss by an ulp
        size = hypot(x1, perp)
        stop = 2.0 * ulp(psi)
        # xi on the axis, or F a multiple of alpha: y is parallel to xi
        todo = (perp > 0.0) & (b != 0.0)
        knots, cells = self._angle_table
        theta, inv_h, lo, hi, a1, a2, a3 = floats(cells[:, np.searchsorted(knots, psi, "right")])
        u = (psi - theta) * inv_h
        t = lo + u * (a1 + u * (a2 + u * a3))
        c, s = select(todo, (cos(t), sin(t)), (x1 / size, perp / size))
        for _ in range(ANGLE_MAX_ITER):
            i1, i2, slope = self._image(c, s)
            gap = atan2(i2, i1) - psi
            on = todo & (abs(gap) > stop)
            if not any_(on):
                break
            # Theta increases, so every evaluated t is a bracket end
            lo, hi = select(gap < 0.0, (t, hi), (lo, t))
            step, mid = t - gap / slope(), 0.5 * (lo + hi)
            # a finished row keeps its c and s, whatever its t
            todo = on & (lo < mid) & (mid < hi)
            t = select((lo < step) & (step < hi), step, mid)
            c, s = select(todo, (cos(t), sin(t)), (c, s))
        else:
            if not rows:
                raise NoConvergence(ANGLE_MAX_ITER, abs(gap))
            size = np.where(todo, np.nan, size)  # a row not met
        alpha = size / hypot(i1, i2)
        if not rows:
            y = np.zeros(self.dim)
            y[0] = alpha * c
            if perp > 0.0:
                y[1:] = (alpha * s / perp) * xi[1:]
            return y
        Y = np.empty_like(xi)
        Y[:, 0] = alpha * c
        with np.errstate(invalid="ignore", divide="ignore"):
            Y[:, 1:] = np.where(perp > 0.0, alpha * s / perp, 0.0)[:, None] * xi[:, 1:]
        return Y

    def restricted(self, m):
        _check_subdim(m, self.dim)
        return AlphaBetaNorm(self.profile, self.b, m, strategy=self.strategy)


class ScaledNorm(MinkowskiNorm):
    """c * F for a positive constant c; tensors scale by c^2."""

    family = "scaled"

    def __init__(self, base: MinkowskiNorm, factor: float):
        if not factor > 0.0:
            raise NotInDomain("scale factor must be positive")
        # the base is checked and computes the bundles, so no _analytic is needed
        self.dim, self.strategy, self._window = base.dim, base.strategy, base._window
        self.base = base
        self.factor = float(factor)

    def _value(self, y):
        return self.factor * self.base._value(y)

    # the base class's method, named here because perfbench's tracer hooks
    # it on this class
    derivatives = MinkowskiNorm.derivatives

    def _derivatives(self, y, order):
        d = self.base._derivatives(y, order)
        c2 = self.factor**2
        return Derivatives(self.factor * d.F, *(
            None if a is None else c2 * a for a in (d.d1, d.d2, d.d3, d.d4)))

    def _legendre_inverse(self, xi):
        # L^-1 has degree 1: the base inverts xi in its own window
        return self.base._legendre_inverse(xi) / self.factor**2

    def _dual_value(self, xi):
        # (cF)* = F* / c
        return self.base._dual_value(xi) / self.factor

    def _dual_fundamental_tensor(self, xi, g=None):
        c2 = self.factor**2
        return self.base._dual_fundamental_tensor(xi, None if g is None else g / c2) / c2

    def _subspace_dual(self, m):
        return ScaledNorm(self.base._subspace_dual(m), self.factor)

    def restricted(self, m):
        return ScaledNorm(self.base.restricted(m), self.factor)

    def rotated(self, Q):
        return ScaledNorm(self.base.rotated(Q), self.factor)


def _check_subdim(m: int, n: int):
    if not 1 <= m < n:
        raise BadDimension(f"subspace dimension must satisfy 1 <= m < {n}, got {m}")


# -- finite differences --------------------------------------------------------


# Each helper takes a point z (n,) with one step h, or rows z (..., n) with a
# step per row, and calls fn once per stencil offset on the point or all rows.


def _steps(h, n: int) -> np.ndarray:
    """The offsets h e_i as the rows i of an (n, n) block, one block per step."""
    return np.asarray(h, dtype=float)[..., None, None] * np.eye(n)


def fd_jacobian(fn, z: np.ndarray, h) -> np.ndarray:
    """Central differences (fn(z + h e_i) - fn(z - h e_i)) / 2h of a scalar- or
    array-valued function, stacked on a new last axis."""
    E, h2 = _steps(h, z.shape[-1]), 2 * np.asarray(h, dtype=float)
    out = []
    for i in range(z.shape[-1]):
        d = fn(z + E[..., i, :]) - fn(z - E[..., i, :])
        # a step per row divides all the values of its row
        out.append(d / h2.reshape(h2.shape + (1,) * (np.ndim(d) - h2.ndim)))
    return np.stack(out, axis=-1)


def fd_gradient(fn, z: np.ndarray, h) -> np.ndarray:
    """Gradient of a scalar function by central differences, Richardson
    extrapolated over the steps h and h/2."""
    return (4 * fd_jacobian(fn, z, 0.5 * h) - fd_jacobian(fn, z, h)) / 3


def fd_hessian(fn, z: np.ndarray, h) -> np.ndarray:
    """Hessian of a scalar function by central second differences of step h."""
    n = z.shape[-1]
    E = _steps(h, n)
    f0 = fn(z)
    h = np.asarray(h, dtype=float)
    hh = h * h  # not h ** 2, so that a point rounds like the rows
    out = np.zeros(np.shape(f0) + (n, n))
    for i in range(n):
        zp, zm = z + E[..., i, :], z - E[..., i, :]
        out[..., i, i] = (fn(zp) - 2 * f0 + fn(zm)) / hh
        for j in range(i + 1, n):
            ej = E[..., j, :]
            out[..., i, j] = out[..., j, i] = (
                fn(zp + ej) - fn(zp - ej) - fn(zm + ej) + fn(zm - ej)
            ) / (4 * hh)
    return out
