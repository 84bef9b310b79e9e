import numpy as np
import pytest

from minkgeom import norms


@pytest.fixture(scope="session")
def euclid3():
    return norms.EuclideanNorm(3)


@pytest.fixture(scope="session")
def randers2():
    return norms.RandersNorm([0.5, 0.0])


@pytest.fixture(scope="session")
def randers3():
    return norms.RandersNorm([0.5, 0.0, 0.0])


@pytest.fixture(scope="session")
def randers3_mixed():
    # Example-4 configuration: b has components inside and outside Vbar
    return norms.RandersNorm([0.1, 0.0, 0.2])


@pytest.fixture(scope="session")
def quartic3():
    return norms.KthRootNorm(4, 3)


@pytest.fixture(scope="session")
def alphabeta3():
    return norms.AlphaBetaNorm(norms.PolynomialProfile([1.0, 1.0, 0.1]), 0.3, 3)


@pytest.fixture(scope="session")
def family_zoo(euclid3, randers3, quartic3, alphabeta3):
    return [euclid3, randers3, quartic3, alphabeta3]


@pytest.fixture()
def rng():
    return np.random.default_rng(20240615)
