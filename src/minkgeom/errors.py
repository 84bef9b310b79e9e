"""Exception types raised by the minkgeom kernel.

All domain errors derive from :class:`MinkGeomError` so callers can catch the
whole family with one clause.  Numerical failures carry the data needed to
diagnose them (iteration counts, residuals).
"""


class MinkGeomError(Exception):
    """Base class for all minkgeom errors."""


class ZeroVector(MinkGeomError):
    """A tangent vector is zero, where F is not smooth, or has a non-finite entry."""


class ZeroCovector(MinkGeomError):
    """A covector is zero or has a non-finite entry."""


class NotInDomain(MinkGeomError):
    """Argument outside the norm's domain (of positivity, or of its strategies)."""


class DegenerateMetric(MinkGeomError):
    """Fundamental tensor failed a positive-definiteness factorization."""


class NoConvergence(MinkGeomError):
    """Inversion of the Legendre map (Newton, or the alpha-beta angle solve)
    did not converge."""

    def __init__(self, iterations, residual):
        self.iterations = iterations
        self.residual = residual
        super().__init__(
            f"Legendre inversion stalled after {iterations} iterations "
            f"(residual {residual:.3e})"
        )


class BadDimension(MinkGeomError):
    """Dimension argument out of range for the requested operation."""


class DimensionTooLarge(MinkGeomError):
    """Quadrature budget does not cover this dimension."""


class CriticalPoint(MinkGeomError):
    """df vanishes (or nearly so) where a regular point is required."""


class CriticalPointOnLevel(MinkGeomError):
    """A sampled level-set point turned out to be critical."""


class LevelNotReached(MinkGeomError):
    """More than half the sampled directions gave no point of the level.

    A direction fails when neither its ray nor the mirrored ray meets the
    level (in closed form on a field with a degree, else inside the ray
    ladder's span), when f fails at the point or inside the bracket, or when
    the point misses |f - t| <= 1e-10 |t| (1e-10 at t = 0).
    """


class LeftRegularRegion(MinkGeomError):
    """Gradient-flow integration approached a critical point."""


class EigenFailure(MinkGeomError):
    """Symmetric eigendecomposition failed (degenerate frame metric)."""


class NotOrthogonal(MinkGeomError):
    """Vectors violate a required g_y-orthogonality precondition."""


class NotUnit(MinkGeomError):
    """Vector violates the F(y) = 1 precondition."""


class NotIsoparametric(MinkGeomError):
    """Operation requires a report with an isoparametric verdict."""


class ConfigError(MinkGeomError):
    """Scenario configuration is malformed.

    ``where`` is a dotted field path (or file:line for parse errors).
    """

    def __init__(self, where, message):
        self.where = where
        super().__init__(f"{where}: {message}")
