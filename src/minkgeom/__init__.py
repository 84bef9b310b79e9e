"""Numerical geometry of Minkowski (flat Finsler) norms.

Modules
-------
norms          norm families, fundamental and Cartan tensors
duality        Legendre transform, dual norms, subspace duals
calculus       scalar fields, nonlinear gradient / Hessian / Laplacian, volumes
hypersurface   level-set frames, principal curvatures, Cartan curvature
isoparametric  level sampling, transnormal/isoparametric verification
randers        closed-form Randers witnesses (isoparametric system, cylinders, Lemma 6.1)
cli            batch driver (``minkgeom verify|curvatures|dualcheck``)
"""

from . import calculus, duality, errors, hypersurface, isoparametric, norms, randers
from .norms import (
    AlphaBetaNorm,
    EuclideanNorm,
    KthRootNorm,
    MinkowskiNorm,
    PolynomialProfile,
    RandersNorm,
    ScaledNorm,
)

__all__ = [
    "calculus",
    "duality",
    "errors",
    "hypersurface",
    "isoparametric",
    "norms",
    "randers",
    "MinkowskiNorm",
    "EuclideanNorm",
    "RandersNorm",
    "KthRootNorm",
    "AlphaBetaNorm",
    "ScaledNorm",
    "PolynomialProfile",
]

__version__ = "0.1.0"
