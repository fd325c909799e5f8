"""Exception types shared across the package.

Every failure mode that callers are expected to handle gets its own class;
plain ValueError/TypeError are reserved for programming errors.
"""


class GnsparseError(Exception):
    """Base class for all package-specific errors."""


class UnresolvableFunctionError(GnsparseError):
    """A test-function spec is too fine for the grid (width <= 4h)."""


class EmptyRegionError(GnsparseError):
    """An integral or average was requested over an empty region."""


class CorpusConfigError(GnsparseError):
    """A corpus member is incompatible with the analysis window or config."""


class ConstructionError(GnsparseError):
    """A built covering family violates one of its structural guarantees."""


class ModularRangeError(GnsparseError):
    """A Young function overflowed while evaluating a modular."""

    def __init__(self, message, argument=None):
        super().__init__(message)
        self.argument = argument


class YoungBracketError(GnsparseError):
    """The Luxemburg solver found no bracket for the unit-modular scale:
    the modular at max|f| is 0 or not finite, or the convexity bracket
    leaves the floats."""


class AdmissibilityError(GnsparseError):
    """A space descriptor or combined descriptor has inadmissible parameters."""


class ConfigError(GnsparseError):
    """A run configuration cannot be parsed or validated (CLI exit status 2)."""


class YoungInversionError(GnsparseError):
    """A Young-function inversion got a NaN target or did not converge.

    Distinct from OverflowError, which means a value too large for a float.
    """
