"""Exception hierarchy shared across the package."""

__all__ = [
    "FracLabError",
    "ExpressionError",
    "OverlapError",
    "DegenerateError",
    "ArgumentError",
    "NoBoundaryError",
    "SingularGradientError",
    "CoincidentPointsError",
    "RangeError",
    "DimensionMismatchError",
    "QuadratureError",
    "ToleranceError",
    "NotPositiveDefiniteError",
    "ConvergenceError",
    "AsymmetricMeshError",
    "SupercriticalError",
    "WindowError",
    "SupportError",
    "DomainCollisionError",
    "ConfigError",
]


class FracLabError(Exception):
    """Base class for all package-specific errors."""


class ExpressionError(FracLabError):
    """Malformed closed-form expression (syntax, unknown variable, bad exponent)."""


class OverlapError(FracLabError):
    """Intervals touch or overlap."""


class DegenerateError(FracLabError):
    """Interval with non-positive length."""


class ArgumentError(FracLabError):
    """Argument outside the documented range."""


class NoBoundaryError(FracLabError):
    """Level-set sampling found no sign change on the grid."""


class SingularGradientError(FracLabError):
    """|grad g| below threshold at a sampled boundary point."""


class CoincidentPointsError(FracLabError):
    """Kernel evaluation at (nearly) coincident points."""


class RangeError(FracLabError):
    """Constants outside the admissible range for the requested quantity."""


class DimensionMismatchError(FracLabError):
    """Field/point dimensions disagree."""


class QuadratureError(FracLabError):
    """Subdivision/refinement cap exceeded before reaching the target accuracy."""


class ToleranceError(FracLabError):
    """Estimated error above the requested tolerance."""


class NotPositiveDefiniteError(FracLabError):
    """Mass matrix is not symmetric positive definite."""


class ConvergenceError(FracLabError):
    """Iterative or direct solve failed to converge."""


class AsymmetricMeshError(FracLabError):
    """Even restriction requested on a mesh that is not symmetric about 0."""


class SupercriticalError(FracLabError):
    """Nonlinearity exponent at or above the critical value for this s."""


class WindowError(FracLabError):
    """Trace-fit window contains fewer nodes than the fit needs."""


class SupportError(FracLabError):
    """Bump support too close to (or outside) the domain boundary."""


class DomainCollisionError(FracLabError):
    """Perturbed endpoint would degenerate or reorder the intervals."""


class ConfigError(FracLabError):
    """Invalid run configuration."""
