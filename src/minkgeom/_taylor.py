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
        # bincount adds the weights in input order, the sums of np.add.at
        return np.bincount(self._mul_out, a[self._mul_a] * b[self._mul_b], self.size)


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

    @staticmethod
    def constant(sp: JetSpace, value: float) -> "Jet":
        c = np.zeros(sp.size)
        c[0] = value
        return Jet(sp, c)

    @staticmethod
    def variable(sp: JetSpace, i: int, base: float) -> "Jet":
        c = np.zeros(sp.size)
        c[0] = base
        c[sp._unit[i]] = 1.0
        return Jet(sp, c)

    @staticmethod
    def variables(sp: JetSpace, base: np.ndarray) -> list["Jet"]:
        return [Jet.variable(sp, i, float(base[i])) for i in range(sp.n)]

    @staticmethod
    def norm_squared(sp: JetSpace, y: np.ndarray) -> "Jet":
        """|x|^2 around y: |y|^2 (the bits of ``y @ y``), 2 y_i on x_i, 1 on x_i^2."""
        c = np.zeros(sp.size)
        c[0] = y @ y
        c[sp._unit] = 2.0 * y
        c[sp._square] = 1.0
        return Jet(sp, c)

    @staticmethod
    def linear(sp: JetSpace, y: np.ndarray, w: np.ndarray) -> "Jet":
        """w.x around y: w.y (the bits of ``w @ y``) and w_i on x_i."""
        c = np.zeros(sp.size)
        c[0] = w @ y
        c[sp._unit] = w
        return Jet(sp, c)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(self.space, self.c + other.c)
        c = self.c.copy()
        c[0] += other
        return Jet(self.space, c)

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.space, -self.c)

    def __sub__(self, other):
        if isinstance(other, Jet):
            return Jet(self.space, self.c - other.c)
        c = self.c.copy()
        c[0] -= other
        return Jet(self.space, c)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Jet):
            return Jet(self.space, self.space.mul(self.c, other.c))
        return Jet(self.space, self.c * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other.reciprocal()
        return Jet(self.space, self.c / other)

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def __pow__(self, p):
        if isinstance(p, int) and p >= 0:
            out = Jet.constant(self.space, 1.0)
            for _ in range(p):
                out = out * self
            return out
        return self.compose_univariate(_pow_derivs(self.c[0], p))

    # -- composition --------------------------------------------------------

    def compose_univariate(self, derivs) -> "Jet":
        """h(self) for a univariate h given h, h', ..., h'''' at self.value.

        Horner evaluation of the Taylor polynomial of h, to the space's
        order, in the nilpotent part of the jet.
        """
        order = self.space.order
        coeffs = [derivs[j] / math.factorial(j) for j in range(order + 1)]
        v = Jet(self.space, self.c.copy())
        v.c[0] = 0.0
        out = Jet.constant(self.space, coeffs[order])
        for j in range(order - 1, -1, -1):
            out = out * v + coeffs[j]
        return out

    def sqrt(self) -> "Jet":
        return self.compose_univariate(_pow_derivs(self.c[0], 0.5))

    def reciprocal(self) -> "Jet":
        return self.compose_univariate(_pow_derivs(self.c[0], -1.0))

    # -- extraction ---------------------------------------------------------

    @property
    def value(self) -> float:
        return float(self.c[0])

    def derivative_tensor(self, order: int) -> np.ndarray:
        """Dense symmetric derivative tensor of the given order (<= the space's)."""
        sp = self.space
        return np.asarray((self.c * sp._factorial)[sp._tensor_index[order]])


def _pow_derivs(u0: float, p: float) -> list[float]:
    """Derivatives of t**p at u0, orders 0..4. Requires u0 > 0 for non-integer p."""
    if u0 <= 0.0 and not float(p).is_integer():
        raise ValueError(f"fractional power of non-positive jet value {u0!r}")
    out = []
    coef = 1.0
    for j in range(ORDER + 1):
        out.append(coef * u0 ** (p - j))
        coef *= p - j
    return out
