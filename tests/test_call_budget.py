"""The calls one ``verify`` makes, as a budget.

A verify at the benchmark's sizes is mostly numpy's fixed cost per call, so
its Python-level and builtin calls (counted with ``sys.setprofile``) are the
cost that faster kernels cannot remove.  Calls are deterministic where time is
not: the count must not grow with the number of points, and must stay within
the budget, which a change may only lower.
"""

import sys

import pytest

from minkgeom import calculus, isoparametric as iso, norms

# the calls of one verify of the sphere potential on levels 0.5, 2 and 4.5, n = 3
BUDGET = {"randers": 740, "kth_root": 621, "alpha_beta": 995}


def _norm(family: str) -> norms.MinkowskiNorm:
    return {
        "randers": lambda: norms.RandersNorm([0.5, 0.0, 0.0]),
        "kth_root": lambda: norms.KthRootNorm(4, 3),
        "alpha_beta": lambda: norms.AlphaBetaNorm(norms.PolynomialProfile([1.0, 1.0, 0.1]), 0.3, 3),
    }[family]()


def calls_of(fn) -> int:
    """The Python and builtin calls made while ``fn()`` runs."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        count += event in ("call", "c_call")

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return count


@pytest.mark.parametrize("family", list(BUDGET))
def test_a_verify_makes_its_calls_whatever_its_size(family):
    norm = _norm(family)
    field = calculus.sphere_potential(norm)

    def verify(count):
        return lambda: iso.verify(norm, field, [0.5, 2.0, 4.5], count=count)

    # each counted call follows one of the other size, so that no one-point
    # bundle a norm keeps from its last call is reused
    verify(64)()
    small = calls_of(verify(8))
    large = calls_of(verify(64))
    assert large == small
    assert small <= BUDGET[family]
