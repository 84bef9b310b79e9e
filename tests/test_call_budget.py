"""The calls one ``verify`` makes, as a budget.

A verify at the benchmark's sizes is mostly numpy's fixed cost per call, so
its Python-level and builtin calls (counted with ``sys.setprofile``) are the
cost that faster kernels cannot remove.  Calls are deterministic where time is
not: the count must not grow with the number of points, and must stay within
the budget, which a change may only lower.
"""

import gc
import sys

import pytest

from minkgeom import calculus, isoparametric as iso, norms

# the calls of one verify, n = 3: the sphere potential of each family on levels
# 0.5, 2 and 4.5, and the Randers counterexample |xbar| + b.x on 0.8, 1 and 1.25
BUDGET = {"randers": 577, "kth_root": 492, "alpha_beta": 754, "counterexample": 650}
# (small, large) counts; the counterexample's directions include one ray that
# misses every level and is mirrored at 64 and 128 rays, and none at 8 to 32
COUNTS = {"counterexample": (64, 128)}


def _case(name: str) -> tuple:
    """(norm, field, levels) of a budget entry."""
    if name == "counterexample":
        norm = norms.RandersNorm([0.1, 0.0, 0.2])
        return norm, calculus.norm_plus_linear(norm, 2), [0.8, 1.0, 1.25]
    norm = {
        "randers": lambda: norms.RandersNorm([0.5, 0.0, 0.0]),
        "kth_root": lambda: norms.KthRootNorm(4, 3),
        "alpha_beta": lambda: norms.AlphaBetaNorm(norms.PolynomialProfile([1.0, 1.0, 0.1]), 0.3, 3),
    }[name]()
    return norm, calculus.sphere_potential(norm), [0.5, 2.0, 4.5]


def calls_of(fn) -> int:
    """The Python and builtin calls made while ``fn()`` runs.  The garbage
    collector is off meanwhile: a collection would count the finalizers of
    whatever earlier code left behind (a closed generator, say)."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        count += event in ("call", "c_call")

    gc.collect()
    gc.disable()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
        gc.enable()
    return count


@pytest.mark.parametrize("name", list(BUDGET))
def test_a_verify_makes_its_calls_whatever_its_size(name):
    norm, field, levels = _case(name)
    small, large = COUNTS.get(name, (8, 64))

    def verify(count):
        return lambda: iso.verify(norm, field, levels, count=count)

    # each counted call follows one of the other size, so that no one-point
    # bundle a norm keeps from its last call is reused
    verify(large)()
    calls = calls_of(verify(small))
    assert calls_of(verify(large)) == calls
    assert calls <= BUDGET[name]
