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
            # a leading block, as _geometry_in contracts hess[:m, :m]
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

    def test_gradient_hessian_form_and_point_geometry(self, setting):
        norm, field, y, X, Y = setting
        linear = calculus.linear_field([1.0, 2.0, 0.5])
        x = [0.4, -0.2, 0.9]
        for f in (field, linear):
            self._same(lambda p: calculus.gradient(norm, f, p), x)
            self._same(lambda p, u, v: calculus.hessian_form(norm, f, p, u, v), x, X, Y)
            self._same(lambda p: calculus.point_geometry(norm, f, p).lap, x)
            self._same(lambda p: calculus.point_geometry(norm, f, p).fstar, x)

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
        want = _linalg.orthonormal_basis(g, first=y)
        for kind in (list, tuple):
            rows = kind(kind(r) for r in g)
            assert _bits(_linalg.orthonormal_basis(rows, first=kind(y))) == _bits(want)
            assert _bits(_linalg.orthonormal_basis(rows)) == _bits(_linalg.orthonormal_basis(g))

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
    norms.MinkowskiNorm._dual_rows, norms.EuclideanNorm._analytic,
    norms.RandersNorm._analytic, norms.RandersNorm._dual_parts,
    norms.RandersNorm._legendre_inverse, norms.RandersNorm._dual_fundamental_tensor,
    norms.KthRootNorm._analytic, norms.KthRootNorm._legendre_inverse,
    norms.KthRootNorm._dual_fundamental_tensor,
    duality.legendre_inverse, duality.dual_norm, duality.dual_fundamental_tensor,
    norms._rescale,
    calculus.linear_field, calculus.norm_plus_linear,
    calculus._regular_jet, calculus._geometry_in, calculus.level_geometry,
    calculus.ScalarField.value, calculus.ScalarField.d1, calculus.ScalarField._row,
    _linalg.lengths, _linalg.orthonormal_basis, hypersurface.cartan_curvature_Q,
    randers.randers_isoparametric_residual, isoparametric._radial_root,
    isoparametric._randers_witness,
    isoparametric._profile_slopes, isoparametric._level_scales,
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


ROWS_AND_BUNDLE_HOOKS = ("_values", "_derivative_rows", "_dual_rows", "derivatives", "_derivatives")


def test_rows_and_bundle_hooks_live_in_the_base_class():
    # a family writes its point-or-rows bodies (_value, _analytic,
    # _legendre_inverse) and inherits the rows services; the alpha-beta rows
    # solve their Legendre angle by Newton, and a scaled norm scales its
    # base's bundle
    base = vars(norms.MinkowskiNorm)
    families = [c for c in vars(norms).values() if isinstance(c, type)
                and issubclass(c, norms.MinkowskiNorm) and c is not norms.MinkowskiNorm]
    assert len(families) == 5
    overrides = {f"{cls.__name__}.{hook}" for cls in families for hook in ROWS_AND_BUNDLE_HOOKS
                 if hook in vars(cls) and vars(cls)[hook] is not base[hook]}
    assert overrides == {"AlphaBetaNorm._dual_rows", "ScaledNorm._derivatives"}


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
