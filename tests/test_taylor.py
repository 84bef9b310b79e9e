import itertools
import math

import numpy as np
import pytest

from minkgeom import _taylor, norms


def jet_of(fn, base):
    sp = _taylor.space(len(base), _taylor.ORDER)
    return fn(_taylor.Jet.variables(sp, np.asarray(base, dtype=float)))


def test_polynomial_derivatives_exact():
    # f(x, y) = x^2 y + 3 y
    j = jet_of(lambda v: v[0] * v[0] * v[1] + 3.0 * v[1], [2.0, -1.0])
    assert j.value == pytest.approx(-7.0)
    assert np.allclose(j.derivative_tensors([1])[0], [-4.0, 7.0])
    assert np.allclose(j.derivative_tensors([2])[0], [[-2.0, 4.0], [4.0, 0.0]])
    d3 = j.derivative_tensors([3])[0]
    assert d3[0, 0, 1] == pytest.approx(2.0)
    assert d3[0, 0, 0] == pytest.approx(0.0)
    assert np.allclose(j.derivative_tensors([4])[0], 0.0)


def test_sqrt_jet_matches_euclidean_derivatives():
    y = np.array([3.0, 4.0])
    j = jet_of(lambda v: (v[0] * v[0] + v[1] * v[1]).sqrt(), y)
    alpha = 5.0
    ell = y / alpha
    assert j.value == pytest.approx(alpha)
    assert np.allclose(j.derivative_tensors([1])[0], ell)
    h = np.eye(2) - np.outer(ell, ell)
    assert np.allclose(j.derivative_tensors([2])[0], h / alpha, atol=1e-14)
    d3 = j.derivative_tensors([3])[0]
    expect = -(np.einsum("ij,k->ijk", h, ell) + np.einsum("jk,i->ijk", h, ell)
               + np.einsum("ik,j->ijk", h, ell)) / alpha**2
    assert np.allclose(d3, expect, atol=1e-14)


def test_reciprocal_series():
    j = jet_of(lambda v: 1.0 / (1.0 + v[0]), [0.0])
    # 1/(1+x) = 1 - x + x^2 - x^3 + x^4
    assert np.allclose(j.c, [1.0, -1.0, 1.0, -1.0, 1.0])


def test_power_and_division_consistency():
    base = [1.3, 0.7]
    j1 = jet_of(lambda v: (v[0] * v[0] + v[1] ** 4) ** 0.25, base)
    j2 = jet_of(lambda v: ((v[0] * v[0] + v[1] ** 4).sqrt()).sqrt(), base)
    assert np.allclose(j1.c, j2.c, atol=1e-13)


def test_compose_univariate_matches_polynomial_arithmetic():
    # phi(s) = 1 + s + 0.5 s^2 applied to s = x / (1 + y), via composition
    # and via ring operations; both jets must coincide
    def by_compose(v):
        s = v[0] / (1.0 + v[1])
        s0 = s.value
        return s.compose_univariate([1.0 + s0 + 0.5 * s0 * s0, 1.0 + s0, 1.0, 0.0, 0.0])

    def by_ring(v):
        s = v[0] / (1.0 + v[1])
        return s * s * 0.5 + s + 1.0

    j1 = jet_of(by_compose, [0.3, 0.5])
    j2 = jet_of(by_ring, [0.3, 0.5])
    s0 = 0.3 / 1.5
    assert j2.value == pytest.approx(1.0 + s0 + 0.5 * s0 * s0)
    assert np.allclose(j1.c, j2.c, atol=1e-14)


def test_fractional_power_of_nonpositive_raises():
    sp = _taylor.space(1, _taylor.ORDER)
    j = _taylor.Jet.variable(sp, 0, -1.0)
    with pytest.raises(ValueError):
        j.sqrt()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_space_matches_enumerated_reference(n):
    # reference: monomials by exhaustive enumeration, the product table by a
    # loop over monomial pairs, tensors by scattering over index permutations,
    # all truncated at each space order
    for order in range(1, _taylor.ORDER + 1):
        monos = [m for d in range(order + 1)
                 for m in sorted(k for k in itertools.product(range(d + 1), repeat=n)
                                 if sum(k) == d)]
        index = {m: i for i, m in enumerate(monos)}
        pairs = [(a, b, index[tuple(x + y for x, y in zip(ma, mb))])
                 for a, ma in enumerate(monos) for b, mb in enumerate(monos)
                 if sum(ma) + sum(mb) <= order]
        sp = _taylor.JetSpace(n, order)
        assert sp.size == len(monos)
        assert np.array_equal(np.column_stack([sp._mul_a, sp._mul_b, sp._mul_out]), pairs)
        c = np.random.default_rng(n).standard_normal(sp.size)
        jet = _taylor.Jet(sp, c)
        for k in range(1, order + 1):
            want = np.zeros((n,) * k)
            for i, m in enumerate(monos):
                if sum(m) == k:
                    val = c[i] * math.prod(math.factorial(e) for e in m)
                    for perm in itertools.permutations([v for v in range(n)
                                                        for _ in range(m[v])]):
                        want[perm] = val
            assert np.array_equal(jet.derivative_tensors([k])[0], want)
        base = np.arange(1.0, n + 1.0)
        for i, var in enumerate(_taylor.Jet.variables(sp, base)):
            unit = tuple(int(v == i) for v in range(n))
            want = np.zeros(sp.size)
            want[0], want[index[unit]] = base[i], 1.0
            assert np.array_equal(var.c, want)


def test_space_cache_is_per_order():
    assert _taylor.space(3, 2) is _taylor.space(3, 2)
    assert _taylor.space(3, 2) is not _taylor.space(3, _taylor.ORDER)
    assert _taylor.space(3, _taylor.ORDER).order == _taylor.ORDER
    with pytest.raises(ValueError):
        _taylor.JetSpace(3, 0)


def _product_sum(terms):
    out = terms[0]
    for term in terms[1:]:
        out = out + term
    return out


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_polynomial_constructors_match_products(n):
    # the directly written jets of |x|^2 and w.x against the same polynomials
    # multiplied out of variable jets: every coefficient but the constant is
    # exact, and the constant is the bits of the dot product
    rng = np.random.default_rng(n)
    for order in range(1, _taylor.ORDER + 1):
        sp = _taylor.space(n, order)
        for _ in range(10):
            y = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
            w = rng.standard_normal(n)
            xs = _taylor.Jet.variables(sp, y)
            for got, want, const in (
                (_taylor.Jet.norm_squared(sp, y), _product_sum([v * v for v in xs]), y @ y),
                (_taylor.Jet.linear(sp, y, w), _product_sum([v * wi for v, wi in zip(xs, w)]),
                 w @ y),
            ):
                assert got.c[0] == const
                assert got.c[0] == pytest.approx(want.c[0], rel=4 * n * 2.0**-52)
                assert np.array_equal(got.c[1:], want.c[1:])


def _product_alpha_beta_F(norm, sp, y):
    # alpha-beta F built from variable jets by products, sqrt and reciprocal,
    # with every profile derivative: kept as the oracle of the composed jet
    xs = _taylor.Jet.variables(sp, y)
    alpha = _product_sum([v * v for v in xs]).sqrt()
    beta = _product_sum([v * w for v, w in zip(xs, norm.beta_vec)])
    ratio = beta / alpha
    return alpha * ratio.compose_univariate(norm.profile.derivatives(ratio.value))


@pytest.mark.parametrize("n", [2, 3, 5, 6])
def test_alpha_beta_jets_match_the_product_construction(n):
    rng = np.random.default_rng(200 + n)
    for coeffs, b in (([1.0, 1.0, 0.1], 0.3), ([1.0, -0.4, 0.3, 0.05], 0.6)):
        norm = norms.AlphaBetaNorm(norms.PolynomialProfile(coeffs), b, n)
        for order in range(1, _taylor.ORDER + 1):
            sp = _taylor.space(n, order)
            for _ in range(10):
                y = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
                F = _product_alpha_beta_F(norm, sp, y)
                G = F * F * 0.5
                got = norm.derivatives(y, order)
                assert got.F == pytest.approx(F.value, rel=1e-12)
                for name, want in zip(("d1", "d2", "d3", "d4"),
                                      G.derivative_tensors(range(1, order + 1))):
                    err = np.max(np.abs(getattr(got, name) - want))
                    assert err <= 1e-12 * np.max(np.abs(want)), (order, name, err)


@pytest.mark.parametrize("n,order", [(2, 4), (3, 2), (5, 4)])
def test_row_jets_are_the_one_point_jets_of_their_rows(n, order):
    # a product is one bincount over row * size + out, which adds each row's
    # terms in the one-point order: the ring operations and a composition
    # with given derivatives give each row the bits of its one-point jet.
    # Fractional powers read numpy's array power, which may round the last
    # bit of a derivative otherwise than the scalar power, as may the row sum
    # of |y|^2 against y.dot(y)
    sp = _taylor.space(n, order)
    rng = np.random.default_rng(n)
    A, B = rng.standard_normal((2, 7, sp.size))
    A[:, 0] = rng.uniform(0.5, 2.0, 7)
    D = rng.standard_normal((5, 7))
    Y, w = rng.standard_normal((7, n)), rng.standard_normal(n)

    def exact(a, b, d):
        ja, jb = _taylor.Jet(sp, a), _taylor.Jet(sp, b)
        return [ja * jb, ja ** 3, 2.0 - ja * 0.5 + 1.0, ja.compose_univariate(d)]

    def rounded(a, y):
        ja = _taylor.Jet(sp, a)
        return [ja ** 0.5, ja.sqrt() / ja,
                _taylor.Jet.norm_squared(sp, y).sqrt() + _taylor.Jet.linear(sp, y, w)]

    rows, rows_rounded = exact(A, B, list(D)), rounded(A, Y)
    for i in range(7):
        for got, want in zip(rows, exact(A[i], B[i], list(D[:, i]))):
            assert got.c.shape == (7, sp.size)
            assert got.c[i].tobytes() == want.c.tobytes()
            orders = range(order + 1)
            for a, b in zip(got.derivative_tensors(orders), want.derivative_tensors(orders)):
                assert a[i].tobytes() == b.tobytes()
        for got, want in zip(rows_rounded, rounded(A[i], Y[i])):
            assert np.max(np.abs(got.c[i] - want.c)) <= 1e-15 * np.max(np.abs(want.c))


def test_a_nonpositive_row_fails_alone():
    # a fractional power of a non-positive row value is NaN in that row; a
    # one-point jet raises instead
    sp = _taylor.space(2, 2)
    c = np.zeros((3, sp.size))
    c[:, 0] = [1.0, -1.0, 0.0]
    c[:, 1] = 1.0
    root = _taylor.Jet(sp, c).sqrt()
    assert np.isfinite(root.c[0]).all() and np.isnan(root.c[1:]).all()
    assert root.c[0].tobytes() == _taylor.Jet(sp, c[0]).sqrt().c.tobytes()
