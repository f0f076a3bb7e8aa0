"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: ConfigError (including
ModelFormatError) -> 2, model invariant violations -> 3, verification
failures -> 4.  No numeric failure is left: fibre spectra come in
closed form, with their zero modes counted exactly, and every radial
decision (mode exponents, minimal-domain membership, the homotopy
bound) is made in Q.
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
