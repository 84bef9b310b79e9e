"""The small-vector kernels of the per-rung and per-point paths.

On 3-vectors numpy's dispatch costs more than the arithmetic, so the hot
paths contract with ``ndarray.dot`` and method reductions: ``a.dot(b)`` for
``a @ b``, ``math.sqrt(v.dot(v))`` for ``np.linalg.norm(v)``,
``A.ravel().dot(B.ravel())`` for ``np.tensordot(A, B)``, ``a.sum()`` for
``np.sum(a)`` and ``a[:, None] * b`` for ``np.outer(a, b)``; a body that
takes a point or rows contracts its last axis with ``np.vecdot`` and
``np.matvec``, which give each row the bits of the point's ``dot``.  These
tests pin that each rewritten form gives the bits of the form it replaced, that list and tuple inputs still work, and that no
replaced form comes back into the listed functions.  The one-point jet keeps
its 1-D indexing: ``c[..., 0]`` there costs the order-4 kernels several
percent, so no Ellipsis subscript enters ``_taylor.Jet`` or
``JetSpace.mul``.
"""

import ast
import inspect
import math
import textwrap

import numpy as np
import pytest

from minkgeom import (_linalg, _taylor, calculus, duality, hypersurface, isoparametric, norms,
                      randers)
from minkgeom.errors import ZeroVector

DIMS = range(2, 11)
CASES = 40  # seeded random draws per dimension


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def _draws(n: int):
    """Seeded (scale, rng) pairs; scales log-uniform in [1e-150, 1e150] plus both ends."""
    rng = np.random.default_rng(1000 + n)
    exps = np.concatenate(([-150.0, 150.0], rng.uniform(-150.0, 150.0, CASES - 2)))
    for e in exps:
        yield 10.0 ** e, rng


@pytest.mark.parametrize("n", DIMS)
class TestBitIdentities:
    """Each rewritten form equals the numpy form it replaces, bit for bit."""

    def test_dot_is_matmul(self, n):
        for c, rng in _draws(n):
            a, b = c * rng.standard_normal(n), c * rng.standard_normal(n)
            A = c * rng.standard_normal((n, n))
            assert _bits(a.dot(b)) == _bits(a @ b)
            assert _bits(a.dot(A)) == _bits(a @ A)
            assert _bits(A.dot(a)) == _bits(A @ a)

    def test_sqrt_of_dot_is_linalg_norm(self, n):
        for c, rng in _draws(n):
            v = c * rng.standard_normal(n)
            assert _bits(math.sqrt(v.dot(v))) == _bits(np.linalg.norm(v))
            M = c * rng.standard_normal((n, n))
            m = M.ravel()
            assert _bits(math.sqrt(m.dot(m))) == _bits(np.linalg.norm(M))

    def test_raveled_dot_is_tensordot(self, n):
        for c, rng in _draws(n):
            A, B = c * rng.standard_normal((n, n)), c * rng.standard_normal((n, n))
            assert _bits(A.ravel().dot(B.ravel())) == _bits(np.tensordot(A, B))
            # a leading block, as a geometry on m < n coordinates contracts hess[:m, :m]
            C = c * rng.standard_normal((n + 1, n + 1))[:n, :n]
            assert _bits(A.ravel().dot(C.ravel())) == _bits(np.tensordot(A, C))

    def test_chained_dot_is_quadratic_form(self, n):
        for c, rng in _draws(n):
            v, w = c * rng.standard_normal(n), rng.standard_normal(n)
            A = rng.standard_normal((n, n))
            assert _bits(v.dot(A).dot(w)) == _bits(v @ A @ w)

    def test_method_sum_is_np_sum(self, n):
        for c, rng in _draws(n):
            for k in (4, 6):
                y = c ** (2.0 / k) * rng.standard_normal(n)
                assert _bits((y**k).sum()) == _bits(np.sum(y**k))

    def test_vecdot_and_matvec_are_dot_on_every_row(self, n):
        # the shared point-or-rows bodies contract over the last axis with
        # these gufuncs, so each row of an (N, n) array gets the bits of the
        # dot of its point
        for c, rng in _draws(n):
            Y, b = c * rng.standard_normal((6, n)), rng.standard_normal(n)
            A = rng.standard_normal((n, n))
            assert _bits(np.vecdot(Y, b)) == _bits([y.dot(b) for y in Y])
            assert _bits(np.vecdot(Y[0], b)) == _bits(Y[0].dot(b))
            assert _bits(np.matvec(A, Y)) == _bits([A.dot(y) for y in Y])
            assert _bits(np.matvec(A, Y[0])) == _bits(A.dot(Y[0]))

    def test_broadcast_product_is_outer(self, n):
        for c, rng in _draws(n):
            a, b = c * rng.standard_normal(n), rng.standard_normal(n)
            assert _bits(a[:, None] * b) == _bits(np.outer(a, b))
            # a symmetric outer product stays symmetric bit for bit
            assert _bits(a[:, None] * a) == _bits((a[:, None] * a).T)


ROW_NORMS = {"randers": lambda n: norms.RandersNorm(np.full(n, 0.5 / n)),
             "kth_root": lambda n: norms.KthRootNorm(6, n),  # the narrower window
             "alpha_beta": lambda n: norms.AlphaBetaNorm(norms.PolynomialProfile([1.0, 1.0, 0.1]),
                                                         0.3, n)}


@pytest.mark.parametrize("family", ROW_NORMS)
@pytest.mark.parametrize("n", (2, 3, 6))
def test_as_rows_scales_each_row_by_the_rule_of_as_vector(family, n):
    # rows all inside the window, all outside it, and mixed with a zero and
    # a NaN row: each row is (y / s, s) of ``_as_vector`` bit for bit, or NaN
    # where ``_as_vector`` rejects it; rows all inside come back uncopied,
    # with no scale (s None stands for 1.0 on every row)
    norm = ROW_NORMS[family](n)
    lo, hi = norm._window
    rng = np.random.default_rng(20 + n)
    unit = rng.standard_normal((8, n))
    unit /= np.sqrt((unit * unit).sum(axis=1))[:, None]
    inside = unit * np.exp(rng.uniform(np.log(lo), np.log(hi), 8))[:, None]
    outside = unit * np.where(rng.random(8) < 0.5, lo, hi)[:, None] * 10.0 ** rng.choice(
        [-40.0, 40.0], 8)[:, None]
    mixed = np.concatenate([inside[:3], outside[:3], np.zeros((1, n)), np.full((1, n), np.nan)])
    for Y in (inside, outside, mixed):
        rows, s = norms._as_rows(Y, norm)
        s = np.ones(len(Y)) if s is None else s
        for i, y in enumerate(Y):
            try:
                want, ws = norms._as_vector(y, norm)
            except ZeroVector:
                assert np.isnan(s[i]) and np.isnan(rows[i]).all()
                continue
            assert (_bits(rows[i]), _bits(s[i])) == (_bits(want), _bits(ws))
    rows, s = norms._as_rows(inside, norm)
    assert rows is inside and s is None
    assert norms._as_rows(mixed, norm)[1] is not None
    assert not np.shares_memory(norms._as_rows(mixed, norm)[0], mixed)
    # so the rows services must not write their input: a read-only one passes
    inside.flags.writeable = False
    for service in (norm._values, norm._derivative_rows, norm._dual_rows):
        service(inside)


def _hypot_lengths(A):
    with np.errstate(over="ignore"):
        while A.ndim > 1:
            A = np.hypot.reduce(A, axis=-1)
    return A


@pytest.mark.parametrize("shape", [(64, 3), (64, 3, 3), (32, 6, 6), (16, 10, 10), (8, 1)])
def test_lengths_agree_with_the_hypot_chain(shape):
    # the plain square root on a row far inside the float range, else the
    # scaled one, m |A / m| with m = max |a|: within a few ulp of the np.hypot
    # chain from 1e-300 to 1e300, per entry or per row
    rng = np.random.default_rng(len(shape) * 100 + shape[-1])
    row = (shape[0],) + (1,) * (len(shape) - 1)
    for _ in range(50):
        for exps in (rng.uniform(-300, 300, shape), rng.uniform(-300, 300, row),
                     rng.uniform(-140, 140, row)):
            A = rng.standard_normal(shape) * 10.0 ** exps
            want = _hypot_lengths(A)
            got = _linalg.lengths(A)
            assert np.all(abs(got - want) <= 4 * np.spacing(want))
            # a row's length does not depend on the other rows
            assert _bits(got) == _bits([_linalg.lengths(a[None])[0] for a in A])
    # 0 for a zero row, inf for a row with an inf, NaN for one with a NaN and no inf
    A = np.zeros((6, 3))
    A[1, 0], A[2, 1], A[3, :2], A[4, 2], A[5] = np.inf, np.nan, (-np.inf, np.nan), 1e300, np.nan
    got = _linalg.lengths(A)
    assert _bits(got) == _bits(_hypot_lengths(A))
    assert got[0] == 0.0 and np.isinf(got[[1, 3]]).all() and np.isnan(got[[2, 5]]).all()


@pytest.fixture(scope="module")
def setting():
    norm = norms.RandersNorm([0.3, -0.1, 0.2])
    field = calculus.sphere_potential(norm)
    y, X, Y = hypersurface.gram_orthogonal_triple(norm, np.random.default_rng(7))
    return norm, field, y, X, Y


class TestListInputs:
    """Each touched public entry point gives the same bits for a list, a
    tuple and an ndarray."""

    @staticmethod
    def _same(fn, *args):
        want = _bits(fn(*(np.array(a) for a in args)))
        for kind in (list, tuple):
            assert _bits(fn(*(kind(a) for a in args))) == want

    def test_gradient_and_point_geometry(self, setting):
        norm, field, *_ = setting
        linear = calculus.linear_field([1.0, 2.0, 0.5])
        x = [0.4, -0.2, 0.9]
        for f in (field, linear):
            self._same(lambda p: calculus.gradient(norm, f, p), x)
            # the point geometry of one row
            self._same(lambda p: calculus.level_geometry(norm, f, [p])[0].lap, x)
            self._same(lambda p: calculus.level_geometry(norm, f, [p])[0].fstar, x)

    @pytest.mark.parametrize("method", ("primal", "dual", "frame_trace"))
    def test_laplacian(self, setting, method):
        norm, field, *_ = setting
        self._same(lambda p: calculus.laplacian(norm, field, p, method=method), [0.4, -0.2, 0.9])

    def test_cartan_curvature_Q(self, setting):
        norm, _, y, X, Y = setting
        self._same(lambda *v: hypersurface.cartan_curvature_Q(norm, *v), y, X, Y)

    def test_orthonormal_basis(self, setting):
        norm, _, y, *_ = setting
        g = norm.fundamental_tensor(y)
        want = _linalg.orthonormal_basis(g[None], y[None])
        for kind in (list, tuple):
            stack = kind([kind(kind(r) for r in g)])
            assert _bits(_linalg.orthonormal_basis(stack, kind([kind(y)]))) == _bits(want)

    def test_dual_norm_and_value(self, setting):
        norm, *_ = setting
        self._same(lambda v: duality.dual_norm(norm, v), [0.7, -1.2, 0.4])
        self._same(norm.value, [0.7, -1.2, 0.4])


# The functions of the per-rung and per-point paths; each must contract with
# ndarray.dot and method reductions.
HOT_PATHS = (
    norms._as_vector, norms.MinkowskiNorm.value,
    norms.EuclideanNorm._value, norms.RandersNorm._value,
    norms.KthRootNorm._value, norms.AlphaBetaNorm._value,
    norms.MinkowskiNorm.derivatives, norms.ScaledNorm._derivatives,
    norms.MinkowskiNorm._values, norms.MinkowskiNorm._derivative_rows,
    norms.MinkowskiNorm._dual_rows, norms.MinkowskiNorm._dual_values, norms.EuclideanNorm._analytic,
    norms.RandersNorm._analytic, norms.RandersNorm._dual_parts,
    norms.MinkowskiNorm._dual_value, norms.RandersNorm._dual_value, norms.KthRootNorm._dual_value,
    norms.ScaledNorm._dual_value,
    norms.RandersNorm._legendre_inverse, norms.RandersNorm._dual_fundamental_tensor,
    norms.KthRootNorm._analytic, norms.KthRootNorm._legendre_inverse,
    norms.KthRootNorm._dual_fundamental_tensor,
    duality.legendre_inverse, duality.dual_norm, duality.dual_fundamental_tensor,
    duality.legendre_inverse_newton, norms._rescale, norms.MinkowskiNorm._fd,
    norms.fd_jacobian, norms.fd_hessian,
    calculus.linear_field, calculus.norm_plus_linear,
    calculus._regular, calculus._regular_jet, calculus.level_geometry,
    calculus._dual_geometry, calculus.prefix_support,
    calculus.ScalarField.value, calculus.ScalarField.d1, calculus.ScalarField._row,
    _linalg.lengths, _linalg.scaled_lengths, _linalg.orthonormal_basis,
    hypersurface.cartan_curvature_Q, isoparametric._level_points,
    randers.randers_isoparametric_residual, isoparametric._radial_root,
    isoparametric._randers_witness,
    isoparametric._profile_slopes, isoparametric._level_table, isoparametric._per_run,
    isoparametric._run_means, norms._as_rows, norms._scaled, calculus._laplacian_terms,
    randers._isoparametric_terms,
    _taylor.Jet.norm_squared, _taylor.Jet.linear,
)
SLOW_CALLS = {"np.linalg.norm", "np.sum", "np.tensordot", "np.outer"}


def slow_forms(source: str, first_line: int = 1) -> list[tuple[int, str]]:
    """(line, form) of each ``@`` and each call in SLOW_CALLS in ``source``."""
    found = []
    for node in ast.walk(ast.parse(textwrap.dedent(source))):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Call) and ast.unparse(node.func) in SLOW_CALLS:
            found.append((node.lineno, ast.unparse(node.func)))
    return sorted((first_line + line - 1, form) for line, form in found)


class TestNoSlowForms:
    def test_the_guard_finds_each_form(self):
        src = ("def f(a, b):\n    x = a @ b\n"
               "    return np.sum(a) + np.linalg.norm(b) + np.tensordot(a, b) + np.outer(a, b)\n")
        assert slow_forms(src, 10) == [(11, "@"), (12, "np.linalg.norm"), (12, "np.outer"),
                                       (12, "np.sum"), (12, "np.tensordot")]

    @pytest.mark.parametrize("fn", HOT_PATHS, ids=lambda fn: fn.__qualname__)
    def test_hot_path_has_no_slow_form(self, fn):
        lines, first = inspect.getsourcelines(fn)
        hits = slow_forms("".join(lines), first)
        where = inspect.getsourcefile(fn)
        assert not hits, "; ".join(f"{fn.__qualname__} ({where}:{line}) uses {form}"
                                   for line, form in hits)


ROWS_AND_BUNDLE_HOOKS = ("_values", "_derivative_rows", "_dual_rows", "_dual_values", "derivatives",
                         "_derivatives")


def test_rows_and_bundle_hooks_live_in_the_base_class():
    # a family writes its point-or-rows bodies (_value, _analytic,
    # _legendre_inverse, _dual_value) and inherits the rows services; a scaled norm
    # scales its base's bundle
    base = vars(norms.MinkowskiNorm)
    families = [c for c in vars(norms).values() if isinstance(c, type)
                and issubclass(c, norms.MinkowskiNorm) and c is not norms.MinkowskiNorm]
    assert len(families) == 5
    overrides = {f"{cls.__name__}.{hook}" for cls in families for hook in ROWS_AND_BUNDLE_HOOKS
                 if hook in vars(cls) and vars(cls)[hook] is not base[hook]}
    assert overrides == {"ScaledNorm._derivatives"}


def test_the_alpha_beta_rows_inverse_builds_no_jet(monkeypatch):
    # the Newton rows of the alpha-beta _legendre_inverse return the preimage
    # alone: F* makes no order-2 row jet, and the rows of a scaled alpha-beta
    # norm make one, for the F and g they return
    calls = []
    derivative_rows = norms.MinkowskiNorm._derivative_rows

    def counting(self, Y):
        calls.append(type(self).__name__)
        return derivative_rows(self, Y)

    monkeypatch.setattr(norms.MinkowskiNorm, "_derivative_rows", counting)
    norm = norms.AlphaBetaNorm(norms.PolynomialProfile([1.0, 1.0, 0.1]), 0.3, 3)
    Xi = np.random.default_rng(7).standard_normal((16, 3))
    assert np.isfinite(norm._dual_values(Xi)).all() and calls == []
    assert np.isfinite(norms.ScaledNorm(norm, 3.0)._dual_rows(Xi)[2]).all()
    assert calls == ["ScaledNorm"]


def ellipsis_subscripts(source: str, first_line: int = 1) -> list[int]:
    """The line of each subscript with an Ellipsis (``c[..., 0]``) in ``source``."""
    found = []
    for node in ast.walk(ast.parse(textwrap.dedent(source))):
        if isinstance(node, ast.Subscript) and any(
                isinstance(part, ast.Constant) and part.value is Ellipsis
                for part in ast.walk(node.slice)):
            found.append(first_line + node.lineno - 1)
    return sorted(found)


JET_PATHS = (_taylor.Jet, _taylor.JetSpace.mul, _taylor._pow_derivs)


class TestOnePointJets:
    def test_the_guard_finds_each_form(self):
        src = "def f(c, d):\n    c[..., 0] = 1.0\n    return d[:, ...] + c[0]\n"
        assert ellipsis_subscripts(src, 5) == [6, 7]

    @pytest.mark.parametrize("obj", JET_PATHS, ids=lambda obj: obj.__qualname__)
    def test_no_ellipsis_indexing(self, obj):
        lines, first = inspect.getsourcelines(obj)
        hits = ellipsis_subscripts("".join(lines), first)
        assert not hits, f"{obj.__qualname__} indexes with an Ellipsis at lines {hits}"
