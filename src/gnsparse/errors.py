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
    """A modular lies above the largest float."""

    def __init__(self, message, argument=None):
        super().__init__(message)
        self.argument = argument


class NormRangeError(GnsparseError):
    """A Luxemburg norm lies above the largest float or below the smallest
    normal one, or a Lebesgue or Lorentz norm of a nonzero field is not a
    positive finite float."""


class AdmissibilityError(GnsparseError):
    """A space descriptor or combined descriptor has inadmissible parameters."""


class ConfigError(GnsparseError):
    """A run configuration cannot be parsed or validated (CLI exit status 2)."""


class YoungInversionError(GnsparseError):
    """A Newton solve got a NaN target or did not converge: a Young
    function's inverse or forward value, or a Luxemburg norm's scale, whose
    loop also raises on a slope that is not positive and finite.

    Distinct from OverflowError, which means a value too large for a float.
    """
