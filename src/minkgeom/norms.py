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
  families without closed forms fall back to the jet path, which is exact.
* ``taylor``    -- truncated multivariate Taylor (jet) arithmetic, exact to
  roundoff for every family; the generic path and the cross-check.
* ``fd``        -- central finite differences with Richardson extrapolation;
  an independent, lower-accuracy check.

Norms are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _taylor
from .errors import BadDimension, DegenerateMetric, NotInDomain, ZeroVector
from .sampling import sphere_directions

ZERO_EXCLUSION = 1e-8

STRATEGIES = ("analytic", "taylor", "fd")


@dataclass(frozen=True)
class Derivatives:
    """Derivative bundle of G = F^2/2 at a fixed direction y."""

    F: float
    d1: np.ndarray
    d2: np.ndarray
    d3: np.ndarray | None = None
    d4: np.ndarray | None = None


@dataclass(frozen=True)
class CartanData:
    """Cartan tensor C_ijk and its y-derivative Ccal_ijkl at a direction."""

    C: np.ndarray
    Ccal: np.ndarray


def _as_vector(y, n: int) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if y.shape != (n,):
        raise BadDimension(f"expected a vector of length {n}, got shape {y.shape}")
    # finite iff every entry is and the square does not overflow; its root is
    # the bits of np.linalg.norm(y)
    sq = float(y @ y)
    if not math.isfinite(sq) and not np.all(np.isfinite(y)):
        raise ZeroVector("vector has non-finite entries")
    if math.sqrt(sq) < ZERO_EXCLUSION:
        raise ZeroVector(
            "vector is inside the zero-exclusion ball; F is not smooth at 0"
        )
    return y


class MinkowskiNorm:
    """Base class for Minkowski norm families."""

    family = "abstract"

    def __init__(self, dim: int, strategy: str = "analytic"):
        if dim < 2:
            raise BadDimension("Minkowski norms need dimension >= 2")
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}; use one of {STRATEGIES}")
        self.dim = int(dim)
        self.strategy = strategy

    # -- family hooks --------------------------------------------------------

    def _value(self, y: np.ndarray) -> float:
        raise NotImplementedError

    def _jet_F(self, ys: list) -> "_taylor.Jet":
        raise NotImplementedError

    def _analytic(self, y: np.ndarray, order: int) -> Derivatives:
        raise NotImplementedError

    # Closed forms of the dual geometry.  A family without one leaves the hook
    # raising NotImplementedError and ``duality`` falls back to damped Newton
    # (inverse, dual tensor) or to ``restricted(m)`` (subspace dual).

    def _legendre_inverse(self, xi: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _dual_fundamental_tensor(self, xi: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _subspace_dual(self, m: int) -> "MinkowskiNorm":
        """Ftilde on the first m coordinates.  The fallback, F restricted, is
        exact only when L preserves that coordinate subspace."""
        raise NotImplementedError

    # -- public services -----------------------------------------------------

    def value(self, y) -> float:
        """F(y).  Raises ZeroVector inside the exclusion ball."""
        y = _as_vector(y, self.dim)
        F = self._value(y)
        if not F > 0.0:
            raise NotInDomain(f"F(y) = {F} is not positive; norm is invalid at y")
        return F

    __call__ = value

    def grad(self, y) -> np.ndarray:
        """Derivative F_{y^i}(y); 0-homogeneous."""
        d = self.derivatives(y, order=1)
        return d.d1 / d.F

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

    def cartan_tensors(self, y) -> CartanData:
        """Cartan tensor and its derivative, C = G_ijk/2 and Ccal = G_ijkl/2."""
        d = self.derivatives(y, order=4)
        return CartanData(C=0.5 * d.d3, Ccal=0.5 * d.d4)

    def derivatives(self, y, order: int = 2) -> Derivatives:
        y = _as_vector(y, self.dim)
        if self.strategy == "fd":
            return self._fd(y, order)
        if self.strategy == "analytic":
            try:
                return self._analytic(y, order)
            except NotImplementedError:
                pass
        return self._taylor(y, order)

    # -- shared machinery ------------------------------------------------------

    def _taylor(self, y: np.ndarray, order: int) -> Derivatives:
        sp = _taylor.space(self.dim)
        F = self._jet_F(_taylor.Jet.variables(sp, y))
        G = F * F * 0.5
        return Derivatives(
            F=F.value,
            d1=G.derivative_tensor(1),
            d2=G.derivative_tensor(2),
            d3=G.derivative_tensor(3) if order >= 3 else None,
            d4=G.derivative_tensor(4) if order >= 4 else None,
        )

    def _fd(self, y: np.ndarray, order: int) -> Derivatives:
        n = self.dim
        scale = np.linalg.norm(y)

        def G(z):
            return 0.5 * self._value(z) ** 2

        def hess_at(z):
            h = 2e-2 * scale
            return (4 * fd_hessian(G, z, 0.5 * h) - fd_hessian(G, z, h)) / 3

        h3 = 2e-3 * scale

        def third(z):
            out = np.zeros((n, n, n))
            for k in range(n):
                e = np.zeros(n)
                e[k] = h3
                out[:, :, k] = (hess_at(z + e) - hess_at(z - e)) / (2 * h3)
            return out

        d1 = fd_gradient(G, y, 1e-2 * scale)
        d2 = hess_at(y)
        d3 = third(y) if order >= 3 else None
        d4 = None
        if order >= 4:
            h4 = 5e-3 * scale
            d4 = np.zeros((n, n, n, n))
            for ll in range(n):
                e = np.zeros(n)
                e[ll] = h4
                d4[:, :, :, ll] = (third(y + e) - third(y - e)) / (2 * h4)
        return Derivatives(F=self._value(y), d1=d1, d2=d2, d3=d3, d4=d4)

    def _validate(self, count: int | None = None):
        """Falsification pass: F > 0 and g positive definite on a sphere grid."""
        n = self.dim
        if count is None:
            count = 2 ** max(8, n + 4)
        for u in sphere_directions(n, count, seed=0):
            F = self._value(u)
            if not F > 0.0:
                raise NotInDomain(f"F <= 0 at sampled direction {u!r}")
            try:
                np.linalg.cholesky(self.derivatives(u, order=2).d2)
            except np.linalg.LinAlgError as exc:
                raise DegenerateMetric(
                    f"fundamental tensor not positive definite at direction {u!r}"
                ) from exc

    # -- structural helpers ----------------------------------------------------

    def scaled(self, factor: float) -> "MinkowskiNorm":
        return ScaledNorm(self, factor)

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
        return math.sqrt(y @ y)

    def _jet_F(self, ys):
        s = ys[0] * ys[0]
        for v in ys[1:]:
            s = s + v * v
        return s.sqrt()

    def _analytic(self, y, order):
        n = self.dim
        return Derivatives(
            F=float(np.linalg.norm(y)),
            d1=y.copy(),
            d2=np.eye(n),
            d3=np.zeros((n, n, n)) if order >= 3 else None,
            d4=np.zeros((n, n, n, n)) if order >= 4 else None,
        )

    def _legendre_inverse(self, xi):
        return xi.copy()

    def _dual_fundamental_tensor(self, xi):
        return np.eye(self.dim)

    def restricted(self, m):
        _check_subdim(m, self.dim)
        return EuclideanNorm(m, strategy=self.strategy)

    def rotated(self, Q):
        return self


class RandersNorm(MinkowskiNorm):
    """F = |y| + b.y with ||b|| < 1 (Euclidean alpha).

    The dual norm is again of Randers type, F*(xi) = sqrt(xi a* xi) + b*.xi
    with a* = (lam I + b b^T) / lam^2 and b* = -b / lam, lam = 1 - |b|^2;
    ``astar`` and ``bstar`` hold these coefficients.
    """

    family = "randers"

    def __init__(self, b, strategy: str = "analytic", validate: bool = True):
        b = np.asarray(b, dtype=float)
        super().__init__(b.size, strategy)
        bnorm = np.linalg.norm(b)
        if not bnorm < 1.0:
            raise NotInDomain(f"Randers requires ||b|| < 1, got {bnorm}")
        self.b = b
        self.b_norm = float(bnorm)
        self.lam = float(1.0 - bnorm**2)
        self.astar = (self.lam * np.eye(b.size) + np.outer(b, b)) / self.lam**2
        self.bstar = -b / self.lam
        if validate:
            self._validate()

    def _value(self, y):
        return float(math.sqrt(y @ y) + self.b @ y)

    def _jet_F(self, ys):
        s = ys[0] * ys[0]
        for v in ys[1:]:
            s = s + v * v
        beta = ys[0] * self.b[0]
        for i, v in enumerate(ys[1:], start=1):
            beta = beta + v * self.b[i]
        return s.sqrt() + beta

    def _analytic(self, y, order):
        b = self.b
        alpha = float(np.linalg.norm(y))
        ell = y / alpha
        h = np.eye(self.dim) - np.outer(ell, ell)
        beta = float(b @ y)
        F = alpha + beta
        Fi = ell + b
        g = np.outer(Fi, Fi) + (F / alpha) * h
        d3 = d4 = None
        if order >= 3:
            A2 = h / alpha
            c = b / alpha - beta * ell / alpha**2
            # twice the Cartan tensor: d(g_ij)/dy^k
            d3 = (
                np.einsum("k,ij->ijk", c, h)
                - (F / alpha) * (np.einsum("ik,j->ijk", A2, ell) + np.einsum("i,jk->ijk", ell, A2))
                + np.einsum("ik,j->ijk", A2, Fi)
                + np.einsum("i,jk->ijk", Fi, A2)
            )
            if order >= 4:
                A3 = -(
                    np.einsum("ij,k->ijk", h, ell)
                    + np.einsum("jk,i->ijk", h, ell)
                    + np.einsum("ik,j->ijk", h, ell)
                ) / alpha**2
                d = (
                    -(np.einsum("k,l->kl", b, ell) + np.einsum("l,k->kl", b, ell)) / alpha**2
                    - beta * h / alpha**3
                    + 2.0 * beta * np.outer(ell, ell) / alpha**3
                )
                d4 = (
                    np.einsum("kl,ij->ijkl", d, h)
                    - np.einsum("k,il,j->ijkl", c, A2, ell)
                    - np.einsum("k,i,jl->ijkl", c, ell, A2)
                    - np.einsum("l,ik,j->ijkl", c, A2, ell)
                    - np.einsum("l,i,jk->ijkl", c, ell, A2)
                    - (F / alpha)
                    * (
                        np.einsum("ikl,j->ijkl", A3, ell)
                        + np.einsum("ik,jl->ijkl", A2, A2)
                        + np.einsum("il,jk->ijkl", A2, A2)
                        + np.einsum("i,jkl->ijkl", ell, A3)
                    )
                    + np.einsum("ikl,j->ijkl", A3, Fi)
                    + np.einsum("ik,jl->ijkl", A2, A2)
                    + np.einsum("il,jk->ijkl", A2, A2)
                    + np.einsum("i,jkl->ijkl", Fi, A3)
                )
        return Derivatives(F=F, d1=F * Fi, d2=g, d3=d3, d4=d4)

    def _dual_parts(self, xi):
        """(a* xi, alpha*(xi), F*(xi))."""
        astar_xi = self.astar @ xi
        alpha_star = float(np.sqrt(xi @ astar_xi))
        return astar_xi, alpha_star, alpha_star + float(self.bstar @ xi)

    def _legendre_inverse(self, xi):
        _, alpha_star, fstar = self._dual_parts(xi)
        return (fstar / (self.lam * alpha_star)) * (xi - fstar * self.b)

    def _dual_fundamental_tensor(self, xi):
        astar_xi, alpha_star, fstar = self._dual_parts(xi)
        al = astar_xi / alpha_star
        fs = al + self.bstar
        return np.outer(fs, fs) + (fstar / alpha_star) * (self.astar - np.outer(al, al))

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
        return ScaledNorm(RandersNorm(bbar / c, strategy=self.strategy, validate=False), c)

    def restricted(self, m):
        _check_subdim(m, self.dim)
        return RandersNorm(self.b[:m], strategy=self.strategy, validate=False)

    def rotated(self, Q):
        Q = np.asarray(Q, dtype=float)
        return RandersNorm(Q.T @ self.b, strategy=self.strategy, validate=False)


class KthRootNorm(MinkowskiNorm):
    """F = (sum_i y_i^k)^(1/k) for even k > 2.

    Smooth and strongly convex away from the coordinate hyperplanes; the
    fundamental tensor degenerates as any coordinate tends to zero, which is
    inherent to the family.
    """

    family = "kth_root"

    def __init__(self, k: int, dim: int, strategy: str = "analytic", validate: bool = True):
        if k <= 2 or k % 2 != 0:
            raise NotInDomain(f"k-th root norm needs even k > 2, got {k}")
        super().__init__(dim, strategy)
        self.k = int(k)
        if validate:
            self._validate()

    def _value(self, y):
        return float(np.sum(y**self.k) ** (1.0 / self.k))

    def _jet_F(self, ys):
        s = ys[0] ** self.k
        for v in ys[1:]:
            s = s + v**self.k
        return s ** (1.0 / self.k)

    def _analytic(self, y, order):
        k, n = self.k, self.dim
        S = float(np.sum(y**k))
        w = 2.0 / k
        H = [0.5 * S**w]
        coef = 0.5
        for j in range(1, 5):
            coef *= w - (j - 1)
            H.append(coef * S ** (w - j))
        Sv = k * y ** (k - 1)
        s2 = k * (k - 1) * y ** (k - 2)
        s3 = k * (k - 1) * (k - 2) * y ** (k - 3)
        s4 = k * (k - 1) * (k - 2) * (k - 3) * y ** (k - 4)
        D2 = np.diag(s2)
        d1 = H[1] * Sv
        d2 = H[2] * np.outer(Sv, Sv) + H[1] * D2
        d3 = d4 = None
        if order >= 3:
            D3 = np.zeros((n, n, n))
            D3[np.arange(n), np.arange(n), np.arange(n)] = s3
            d3 = (
                H[3] * np.einsum("i,j,k->ijk", Sv, Sv, Sv)
                + H[2]
                * (
                    np.einsum("ij,k->ijk", D2, Sv)
                    + np.einsum("ik,j->ijk", D2, Sv)
                    + np.einsum("jk,i->ijk", D2, Sv)
                )
                + H[1] * D3
            )
            if order >= 4:
                D4 = np.zeros((n, n, n, n))
                D4[np.arange(n), np.arange(n), np.arange(n), np.arange(n)] = s4
                d4 = (
                    H[4] * np.einsum("i,j,k,l->ijkl", Sv, Sv, Sv, Sv)
                    + H[3]
                    * (
                        np.einsum("ij,k,l->ijkl", D2, Sv, Sv)
                        + np.einsum("ik,j,l->ijkl", D2, Sv, Sv)
                        + np.einsum("il,j,k->ijkl", D2, Sv, Sv)
                        + np.einsum("jk,i,l->ijkl", D2, Sv, Sv)
                        + np.einsum("jl,i,k->ijkl", D2, Sv, Sv)
                        + np.einsum("kl,i,j->ijkl", D2, Sv, Sv)
                    )
                    + H[2]
                    * (
                        np.einsum("ij,kl->ijkl", D2, D2)
                        + np.einsum("ik,jl->ijkl", D2, D2)
                        + np.einsum("il,jk->ijkl", D2, D2)
                        + np.einsum("ijk,l->ijkl", D3, Sv)
                        + np.einsum("ijl,k->ijkl", D3, Sv)
                        + np.einsum("ikl,j->ijkl", D3, Sv)
                        + np.einsum("jkl,i->ijkl", D3, Sv)
                    )
                    + H[1] * D4
                )
        return Derivatives(F=S ** (1.0 / k), d1=d1, d2=d2, d3=d3, d4=d4)

    def _legendre_inverse(self, xi):
        k = self.k
        sstar = float(np.sum(np.abs(xi) ** (k / (k - 1.0))))
        return np.sign(xi) * np.abs(xi) ** (1.0 / (k - 1.0)) * sstar ** ((k - 2.0) / k)

    def restricted(self, m):
        _check_subdim(m, self.dim)
        return KthRootNorm(self.k, m, strategy=self.strategy, validate=False)


class PolynomialProfile:
    """Profile phi(s) = sum_j coeffs[j] s^j with exact derivatives, evaluated
    by Horner from 0.0: the float64 operations of ``np.polyval``, in order."""

    def __init__(self, coeffs):
        self.coeffs = tuple(float(c) for c in coeffs)
        rows = []
        c = np.array(self.coeffs)
        for _ in range(5):
            rows.append(tuple(float(v) for v in c[::-1]))
            c = c[1:] * np.arange(1, c.size) if c.size > 1 else np.array([])
        self._rows = tuple(rows)

    def phi(self, s: float) -> float:
        return _horner(self._rows[0], float(s))

    def derivatives(self, s: float):
        s = float(s)
        return tuple(_horner(row, s) for row in self._rows)


def _horner(row, s: float) -> float:
    v = 0.0
    for c in row:
        v = v * s + c
    return v


class TabulatedProfile:
    """Profile given by callables for phi, phi', phi''; higher orders by FD.

    Use when only two derivatives are available analytically; the third and
    fourth orders come from central differences of phi'' and inherit the
    reduced accuracy.
    """

    FD_STEP = 1e-4

    def __init__(self, phi, dphi, d2phi):
        self.phi, self.dphi, self.d2phi = phi, dphi, d2phi

    def derivatives(self, s: float):
        h = self.FD_STEP * max(1.0, abs(s))
        lo, mid, hi = self.d2phi(s - h), self.d2phi(s), self.d2phi(s + h)
        d3 = (hi - lo) / (2 * h)
        d4 = (hi - 2 * mid + lo) / h**2
        return (self.phi(s), self.dphi(s), mid, d3, d4)


class AlphaBetaNorm(MinkowskiNorm):
    """F = alpha phi(beta/alpha) with alpha Euclidean and beta = b y^1.

    A profile provides ``phi(s)`` and ``derivatives(s)``, phi and its first
    four derivatives at s.  Values read phi alone; the derivative path is jet
    composition with those derivatives; there is no separate closed form.
    """

    family = "alpha_beta"

    def __init__(self, profile, b: float, dim: int, strategy: str = "taylor",
                 validate: bool = True):
        super().__init__(dim, strategy if strategy != "analytic" else "taylor")
        self.profile = profile
        self.beta_vec = np.zeros(dim)
        self.beta_vec[0] = float(b)
        self.b = float(b)
        if validate:
            self._validate()

    def _value(self, y):
        alpha = math.sqrt(y @ y)
        s = float(self.beta_vec @ y) / alpha
        return alpha * self.profile.phi(s)

    def _jet_F(self, ys):
        s2 = ys[0] * ys[0]
        for v in ys[1:]:
            s2 = s2 + v * v
        alpha = s2.sqrt()
        beta = ys[0] * self.beta_vec[0]
        for i, v in enumerate(ys[1:], start=1):
            beta = beta + v * self.beta_vec[i]
        ratio = beta / alpha
        phi = ratio.compose_univariate(self.profile.derivatives(ratio.value))
        return alpha * phi

    def restricted(self, m):
        _check_subdim(m, self.dim)
        return AlphaBetaNorm(self.profile, self.b, m, strategy=self.strategy, validate=False)


class ScaledNorm(MinkowskiNorm):
    """c * F for a positive constant c; tensors scale by c^2."""

    family = "scaled"

    def __init__(self, base: MinkowskiNorm, factor: float):
        if not factor > 0.0:
            raise NotInDomain("scale factor must be positive")
        super().__init__(base.dim, base.strategy)
        self.base = base
        self.factor = float(factor)

    def _value(self, y):
        return self.factor * self.base._value(y)

    def _jet_F(self, ys):
        return self.base._jet_F(ys) * self.factor

    def derivatives(self, y, order: int = 2):
        d = self.base.derivatives(y, order)
        c2 = self.factor**2
        return Derivatives(
            F=self.factor * d.F,
            d1=c2 * d.d1,
            d2=c2 * d.d2,
            d3=None if d.d3 is None else c2 * d.d3,
            d4=None if d.d4 is None else c2 * d.d4,
        )

    def _legendre_inverse(self, xi):
        return self.base._legendre_inverse(xi / self.factor**2)

    def _dual_fundamental_tensor(self, xi):
        return self.base._dual_fundamental_tensor(xi) / self.factor**2

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


def fd_gradient(fn, z: np.ndarray, h: float) -> np.ndarray:
    """Gradient of a scalar function by central differences, Richardson
    extrapolated over the steps h and h/2."""
    n = z.size
    out = np.zeros(n)
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        d_h = (fn(z + e) - fn(z - e)) / (2 * h)
        d_h2 = (fn(z + 0.5 * e) - fn(z - 0.5 * e)) / h
        out[i] = (4 * d_h2 - d_h) / 3
    return out


def fd_hessian(fn, z: np.ndarray, h: float) -> np.ndarray:
    """Hessian of a scalar function by central second differences of step h."""
    n = z.size
    out = np.zeros((n, n))
    f0 = fn(z)
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h
        out[i, i] = (fn(z + ei) - 2 * f0 + fn(z - ei)) / h**2
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = h
            out[i, j] = out[j, i] = (
                fn(z + ei + ej) - fn(z + ei - ej) - fn(z - ei + ej) + fn(z - ei - ej)
            ) / (4 * h**2)
    return out
