"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: ConfigError (including
ModelFormatError) -> 2, model invariant violations -> 3, verification
failures -> 4.  The fibre layer raises none of these: its spectra come
in closed form, with their zero modes counted exactly.
"""


class EdgeHodgeError(Exception):
    """Base class for all package errors."""


class ShapeMismatchError(EdgeHodgeError):
    """Matrix shapes disagree with the declared grading."""


class ChainMapError(EdgeHodgeError):
    """A would-be chain map fails to commute with the differentials."""


class UnverifiedComplexError(EdgeHodgeError):
    """Operation requires d*d = 0 but the complex fails it."""


class ModelInvariantError(EdgeHodgeError):
    """An edge-space model violates one of its structural invariants."""


class PerversityRangeError(EdgeHodgeError):
    """Perversity outside the range an operation accepts."""


class ConfigError(EdgeHodgeError):
    """Malformed run configuration or unknown catalogue name."""


class ModelFormatError(ConfigError):
    """A model, complex or matrix record does not follow the file schema."""


class VerificationFailure(EdgeHodgeError):
    """An executable invariant suite reported a failing check."""


class QuadratureError(EdgeHodgeError):
    """Sampled-profile quadrature failed its self-consistency check."""


class InconclusiveSlopeError(EdgeHodgeError):
    """Fitted decay exponent too close to zero to decide membership."""


class StiffnessFailureError(EdgeHodgeError):
    """Indicial exponents too close to a double root for reliable recovery."""
