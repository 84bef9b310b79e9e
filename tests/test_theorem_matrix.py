"""The paper's classification as one matrix: each model field is isoparametric
in each norm family, with the curvature groups of its model.

Hyperplanes and Minkowski spheres have one curvature group of size n - 1;
the F*-cylinder over the first m = 2 coordinates has one curved direction and
n - 2 flat ones.  This holds in every Minkowski norm, so the matrix runs each
family (a scaled Randers norm too) at n = 3 and 5.  Two negative controls
keep the verdicts honest: the transnormal counterexample to Wang's Theorem B
and the Euclidean sphere potential in a Randers norm.
"""

import numpy as np
import pytest

from minkgeom import calculus, isoparametric as iso, norms

LEVELS = [0.5, 2.0, 4.5]
COUNT = 32


def _norm(family: str, n: int) -> norms.MinkowskiNorm:
    b = np.zeros(n)
    b[0] = 0.3
    return {
        "euclidean": lambda: norms.EuclideanNorm(n),
        "randers": lambda: norms.RandersNorm(b),
        "kth_root-4": lambda: norms.KthRootNorm(4, n),
        "kth_root-6": lambda: norms.KthRootNorm(6, n),
        "alpha_beta": lambda: norms.AlphaBetaNorm(norms.PolynomialProfile([1.0, 1.0, 0.1]), 0.3, n),
        "scaled-randers": lambda: norms.ScaledNorm(norms.RandersNorm(b), 3.0),
    }[family]()


@pytest.mark.parametrize("n", [3, 5])
@pytest.mark.parametrize("family", ["euclidean", "randers", "kth_root-4", "kth_root-6",
                                    "alpha_beta", "scaled-randers"])
@pytest.mark.parametrize("model", ["linear", "sphere", "cylinder"])
def test_every_model_field_is_isoparametric_in_every_family(model, family, n):
    norm = _norm(family, n)
    field, groups = {
        # no zero entry, so that L^-1(c) leaves every coordinate hyperplane
        "linear": (calculus.linear_field(np.linspace(1.0, 0.5, n) * (-1.0) ** np.arange(n)),
                   (n - 1,)),
        "sphere": (calculus.sphere_potential(norm), (n - 1,)),
        "cylinder": (calculus.cylinder_potential(norm, 2), (1, n - 2)),
    }[model]
    rep = iso.verify(norm, field, LEVELS, count=COUNT)
    assert (rep.transnormal_verdict, rep.isoparametric_verdict) == ("yes", "yes")
    assert rep.group_structure == groups
    assert sum(len(s.points) for s in rep.samples) == len(LEVELS) * COUNT


@pytest.mark.parametrize("control", ["counterexample", "euclidean-sphere-in-randers"])
def test_the_negative_controls_fail(control):
    if control == "counterexample":
        # F*(df) = 1 identically, Delta f varies: transnormal, not isoparametric
        norm = norms.RandersNorm([0.1, 0.0, 0.2])
        rep = iso.verify(norm, calculus.norm_plus_linear(norm, 2), [0.8, 1.0, 1.25], count=COUNT)
        assert (rep.transnormal_verdict, rep.isoparametric_verdict) == ("yes", "no")
        assert not (rep.witness["r1_pass"] and rep.witness["r2_pass"])
    else:
        norm = norms.RandersNorm([0.3, 0.0, 0.0])
        rep = iso.verify(norm, calculus.sphere_potential(norms.EuclideanNorm(3)), LEVELS,
                         count=COUNT)
        assert (rep.transnormal_verdict, rep.isoparametric_verdict) == ("no", "no")
