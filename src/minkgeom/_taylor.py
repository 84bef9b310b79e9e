"""Truncated multivariate Taylor (jet) arithmetic up to order 4.

A :class:`Jet` stores the Taylor coefficients of a smooth function around a
base point, for all monomials of total degree <= order in ``n`` variables,
where the space's order (1 to 4) is the highest derivative a caller reads.  Sums,
products, quotients and composition with a univariate function (given its
derivatives at the inner value) are exact on the truncated algebra, so the
extracted derivative tensors are accurate to roundoff.  This is the generic
derivative path for norm families without closed forms, and the cross-check
for the families that have them.

The polynomial pieces of a norm, |x|^2 and w.x, are written directly into
their coefficients (:meth:`Jet.norm_squared`, :meth:`Jet.linear`) instead of
being multiplied out of variable jets, so a family pays jet products only for
its transcendental parts.

A jet built around the rows of an (N, n) array is a row jet (Griewank &
Walther, Evaluating Derivatives, 2008, ch. 13): its coefficients get a
leading row axis, (N, size), and every operation acts on all rows at once.
A product of row jets is one ``np.bincount`` over the flat indices
row * size + out, which adds each row's terms in the order of the one-point
product, so the ring operations give each row the bits of its one-point
jet; the derivatives of a fractional power come from numpy's array power,
which may round the last bit otherwise than the scalar one.  Univariate
composition takes arrays of derivatives, one value per row, and a
fractional power of a non-positive row value gives NaN in that row alone (a
one-point jet raises ValueError).  The one-point jet keeps its 1-D
coefficients and 1-D indexing.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

ORDER = 4
# A monomial x^e is keyed by code(e) = sum_i e_i * _BASE**i.  Exponents never
# exceed ORDER, so the code of a product is the sum of the two codes.  Codes
# fit in int64 for n <= 27.  The base does not depend on a space's order.
_BASE = ORDER + 1

_SPACES: dict[tuple[int, int], "JetSpace"] = {}


class JetSpace:
    """Monomial bookkeeping for jets of degree <= ``order`` in ``n`` variables
    (cached per (n, order)).

    Monomials are sorted by degree, so a lower order's monomials, product
    table and tensor indices are prefixes of a higher order's, and its
    low-degree coefficients come out bit for bit the same.
    """

    def __init__(self, n: int, order: int):
        if not 1 <= order <= ORDER:
            raise ValueError(f"jet order must lie in 1..{ORDER}, got {order}")
        self.n = n
        self.order = order
        monos = []
        for deg in range(order + 1):
            combos = itertools.combinations_with_replacement(range(n), deg)
            monos.extend(sorted(tuple(map(c.count, range(n))) for c in combos))
        exps = np.array(monos, dtype=np.int64)
        self.size = len(monos)
        degree = exps.sum(axis=1)
        codes = exps @ _BASE ** np.arange(n, dtype=np.int64)
        self._by_code = np.argsort(codes)
        self._sorted_codes = codes[self._by_code]
        # Dense multiplication table: all coefficient pairs whose product
        # monomial still has degree <= order, in row-major order.
        self._mul_a, self._mul_b = np.nonzero(degree[:, None] + degree[None, :] <= order)
        self._mul_out = self._lookup(codes[self._mul_a] + codes[self._mul_b])
        self._flat = None  # (N, flat indices) of the last row product
        factorials = np.array([math.factorial(e) for e in range(order + 1)], dtype=float)
        self._factorial = factorials[exps].prod(axis=1)
        # Coefficient index of each variable x_i and, from order 2, of each x_i^2.
        powers = _BASE ** np.arange(n, dtype=np.int64)
        self._unit = self._lookup(powers)
        self._square = self._lookup(2 * powers) if order >= 2 else powers[:0]
        # Entry (i1, ..., ik) of the order-k derivative tensor reads the
        # coefficient of x_i1 ... x_ik, scaled by the exponents' factorials.
        self._tensor_index = [
            self._lookup((_BASE ** np.indices((n,) * k, dtype=np.int64)).sum(axis=0))
            for k in range(order + 1)
        ]

    def _lookup(self, codes):
        """Coefficient index of the monomial(s) with the given code(s)."""
        return self._by_code[np.searchsorted(self._sorted_codes, codes)]

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if a.ndim == 1:
            # bincount adds the weights in input order, the sums of np.add.at
            return np.bincount(self._mul_out, a[self._mul_a] * b[self._mul_b], self.size)
        # rows: one bincount over row * size + out, each row's terms in the
        # one-point order
        w = a[:, self._mul_a] * b[:, self._mul_b]
        N = len(w)
        return np.bincount(self._flat_out(N), w.ravel(), N * self.size).reshape(N, self.size)

    def _flat_out(self, N: int) -> np.ndarray:
        """row * size + out for the product table of N rows, kept for the last N."""
        flat = self._flat
        if flat is None or flat[0] != N:
            out = (np.arange(N)[:, None] * self.size + self._mul_out).ravel()
            flat = self._flat = (N, out)  # one store: a racing thread only recomputes
        return flat[1]


def space(n: int, order: int) -> JetSpace:
    sp = _SPACES.get((n, order))
    if sp is None:
        sp = _SPACES[n, order] = JetSpace(n, order)
    return sp


class Jet:
    __slots__ = ("space", "c")

    def __init__(self, sp: JetSpace, coeffs: np.ndarray):
        self.space = sp
        self.c = coeffs

    # -- constructors -------------------------------------------------------

    def _constant_like(self, value) -> "Jet":
        """The constant jet of ``value`` (a number, or one per row) shaped like this one."""
        c = np.zeros(self.c.shape)
        if c.ndim == 1:
            c[0] = value
        else:
            c[:, 0] = value
        return Jet(self.space, c)

    @staticmethod
    def variable(sp: JetSpace, i: int, base: float) -> "Jet":
        c = np.zeros(sp.size)
        c[0] = base
        c[sp._unit[i]] = 1.0
        return Jet(sp, c)

    @staticmethod
    def variables(sp: JetSpace, base: np.ndarray) -> list["Jet"]:
        """The jets of x_1 ... x_n around base; rows of base (N, n) give row jets."""
        if base.ndim == 1:
            return [Jet.variable(sp, i, float(base[i])) for i in range(sp.n)]
        out = []
        for i in range(sp.n):
            c = np.zeros((len(base), sp.size))
            c[:, 0] = base[:, i]
            c[:, sp._unit[i]] = 1.0
            out.append(Jet(sp, c))
        return out

    @staticmethod
    def norm_squared(sp: JetSpace, y: np.ndarray) -> "Jet":
        """|x|^2 around y: |y|^2 (the bits of ``y.dot(y)``), 2 y_i on x_i, 1 on x_i^2.

        Rows of y (N, n) give a row jet with the row sums of y * y."""
        if y.ndim == 1:
            c = np.zeros(sp.size)
            c[0] = y.dot(y)
            c[sp._unit] = 2.0 * y
            c[sp._square] = 1.0
            return Jet(sp, c)
        c = np.zeros((len(y), sp.size))
        c[:, 0] = (y * y).sum(axis=1)
        c[:, sp._unit] = 2.0 * y
        c[:, sp._square] = 1.0
        return Jet(sp, c)

    @staticmethod
    def linear(sp: JetSpace, y: np.ndarray, w: np.ndarray) -> "Jet":
        """w.x around y: w.y (the bits of ``w.dot(y)``) and w_i on x_i; rows of y
        (N, n) give a row jet, each row's w.y the bits of its point's."""
        if y.ndim == 1:
            c = np.zeros(sp.size)
            c[0] = w.dot(y)
            c[sp._unit] = w
            return Jet(sp, c)
        c = np.zeros((len(y), sp.size))
        c[:, 0] = np.vecdot(y, w)
        c[:, sp._unit] = w
        return Jet(sp, c)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(self.space, self.c + other.c)
        c = self.c.copy()
        if c.ndim == 1:
            c[0] += other
        else:
            c[:, 0] += other
        return Jet(self.space, c)

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.space, -self.c)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Jet):
            return Jet(self.space, self.space.mul(self.c, other.c))
        return Jet(self.space, self.c * other)  # a number, for one point or rows

    __rmul__ = __mul__

    def __truediv__(self, other):  # a jet over a jet
        return self * other.reciprocal()

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def __pow__(self, p):
        if isinstance(p, int) and p >= 0:
            out = self._constant_like(1.0)
            for _ in range(p):
                out = out * self
            return out
        return self.compose_univariate(_pow_derivs(self._base_value(), p, self.space.order))

    # -- composition --------------------------------------------------------

    def compose_univariate(self, derivs) -> "Jet":
        """h(self) for a univariate h given h, h', ..., h'''' at self.value.

        Horner evaluation of the Taylor polynomial of h, to the space's
        order, in the nilpotent part of the jet.  A row jet takes arrays of
        derivatives, one value per row.  Its first step scales v by the top
        coefficient, with no jet product.
        """
        order = self.space.order
        coeffs = [derivs[j] / math.factorial(j) for j in range(order + 1)]
        v = Jet(self.space, self.c.copy())
        if v.c.ndim == 1:
            v.c[0] = 0.0
        else:
            v.c[:, 0] = 0.0
        top = np.asarray(coeffs[order])
        out = Jet(self.space, v.c * (top[:, None] if top.ndim else top)) + coeffs[order - 1]
        for j in range(order - 2, -1, -1):
            out = out * v + coeffs[j]
        return out

    def sqrt(self) -> "Jet":
        return self.compose_univariate(_pow_derivs(self._base_value(), 0.5, self.space.order))

    def reciprocal(self) -> "Jet":
        return self.compose_univariate(_pow_derivs(self._base_value(), -1.0, self.space.order))

    # -- extraction ---------------------------------------------------------

    def _base_value(self):
        """The constant coefficient, a numpy scalar or one per row."""
        if self.c.ndim == 1:
            return self.c[0]
        return self.c[:, 0]

    @property
    def value(self):
        """The value at the base point: a float, or one per row of a row jet."""
        if self.c.ndim == 1:
            return float(self.c[0])
        return self.c[:, 0]

    def derivative_tensor(self, order: int) -> np.ndarray:
        """Dense symmetric derivative tensor of the given order (<= the space's),
        (N,) + (n,) * order for a row jet."""
        sp = self.space
        if self.c.ndim == 1:
            return np.asarray((self.c * sp._factorial)[sp._tensor_index[order]])
        return (self.c * sp._factorial)[:, sp._tensor_index[order]]


def _pow_derivs(u0, p: float, order: int) -> list:
    """Derivatives of t**p at u0, orders 0..order. Requires u0 > 0 for non-integer
    p; an array u0 (one value per row) gives NaN in each row where it fails."""
    if isinstance(u0, np.ndarray):
        if not float(p).is_integer():
            u0 = np.where(u0 > 0.0, u0, np.nan)
    elif u0 <= 0.0 and not float(p).is_integer():
        raise ValueError(f"fractional power of non-positive jet value {u0!r}")
    out = []
    coef = 1.0
    for j in range(order + 1):
        out.append(coef * u0 ** (p - j))
        coef *= p - j
    return out
