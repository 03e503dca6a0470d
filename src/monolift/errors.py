"""Exception types shared across the package.

Every failure mode that callers are expected to branch on gets its own
class; all of them derive from :class:`MonoliftError` so a bare
``except MonoliftError`` catches any package-specific problem.
"""


class MonoliftError(Exception):
    """Base class for all package-specific failures."""


class MalformedSpecError(MonoliftError, ValueError):
    """Map specification text is not syntactically valid JSON/schema."""


class InvalidParameterError(MonoliftError, ValueError):
    """A parameter is outside its admissible range."""


class DimensionMismatchError(MonoliftError, ValueError):
    """Array shapes or declared dimensions are inconsistent."""


class ResolutionError(MonoliftError, ValueError):
    """Quadrature resolution below the minimum, or a rule with non-finite nodes or weights."""


class DimensionOverflowError(MonoliftError, ValueError):
    """A quadrature rule, lattice or sample would exceed the memory budget."""


class NonFiniteIntegrandError(MonoliftError, ArithmeticError):
    """An integrand or map evaluation produced NaN or infinity."""


class SingularPointError(MonoliftError, ArithmeticError):
    """Differential requested at a point where it does not exist."""


class NoConvergenceError(MonoliftError, ArithmeticError):
    """An iterative computation failed to stabilise.  Nothing in the package
    raises it; it stays only because the benchmark's replay
    (``perfbench/tracing.py``) imports it."""


class ZeroMatrixError(MonoliftError, ValueError):
    """Matrix certification called on the zero matrix."""


class DegenerateMapError(MonoliftError, ArithmeticError):
    """Sampling collapsed: the map identified every sampled pair."""


class DegenerateTripleError(MonoliftError, ArithmeticError):
    """Too many sampled triples were degenerate to bucket reliably."""


class ZeroMassError(MonoliftError, ArithmeticError):
    """A ball carries (numerically) no mass under the given density."""


class NonpositiveHeightError(MonoliftError, ValueError):
    """Upper half-space point with height <= 0 where positivity is required."""


class VanishingVerticalError(MonoliftError, ArithmeticError):
    """Lifted map returned a non-positive vertical component where the
    comparison requires a positive one."""
