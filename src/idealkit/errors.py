"""Exception types shared across the package."""


class IdealKitError(Exception):
    """Base class for every error raised by this library."""


class ContextMismatchError(IdealKitError):
    """Operands live in different polynomial contexts."""


class ImproperIdealError(IdealKitError):
    """The zero or unit ideal was passed where a proper nonzero ideal is required."""


class ExponentOverflowError(IdealKitError):
    """An exponent left the machine-word range kept for canonical serialization."""


class EmbeddedPrimeError(IdealKitError):
    """The ideal has embedded associated primes."""


class NonPointedConeError(IdealKitError):
    """The cone contains a line, so it has no unique minimal Hilbert basis."""


class HypothesisError(IdealKitError):
    """A hypothesis required by the requested operation does not hold."""


class DigraphError(IdealKitError):
    """Invalid weighted digraph data (2-cycle, bad weight, not a vertex cover, ...)."""


class ResourceCapError(IdealKitError):
    """A configured resource cap was exceeded: the vertices of a cover
    enumeration, the lattice points of a Hilbert basis search, or the minimal
    generators of one power in the symbolic-power chain."""


class ParseError(IdealKitError):
    """Malformed input text.  Carries a line number (1-based) when known."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None and column is not None:
            message = f"line {line}, column {column}: {message}"
        elif line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
