"""Exception hierarchy for fraclab.

Every failure mode raised by the library derives from FraclabError, so
drivers tell setup problems from runtime/solver problems with one except
clause per phase.  The discrepancy principle has no failure mode.
"""


class FraclabError(Exception):
    """Base class for all fraclab errors."""


class ConfigError(FraclabError):
    """Malformed or inconsistent scenario configuration."""


class OverlapError(FraclabError):
    """The closures of the domain and the measurement window intersect."""


class ResolutionError(FraclabError):
    """Grid too coarse for the requested computation."""


class GeometryError(FraclabError):
    """A region or radius violates a geometric precondition."""


class SupportError(FraclabError):
    """A grid function carries mass outside its declared support."""


class ZeroDataError(FraclabError):
    """An operation that requires nonzero data received the zero function."""


class DomainError(FraclabError):
    """Scalar argument outside the mathematical domain of an operation."""


class EigenvalueError(FraclabError):
    """The restricted operator is too close to singular to solve."""


class SingularSolveError(FraclabError):
    """Dense factorization failed."""


class EmptyRegionError(FraclabError):
    """No quadrature node falls inside the requested region."""


class ZeroMassError(FraclabError):
    """A mass that must be positive for a ratio is numerically zero."""


class DegenerateError(FraclabError):
    """Degenerate configuration, e.g. equal masses in a three-ball ratio."""


class AllExcludedError(FraclabError):
    """Every node was excluded by the small-denominator guard."""
