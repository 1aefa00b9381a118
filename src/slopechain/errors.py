"""Exception types shared across the package."""


class SlopechainError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(SlopechainError):
    pass


class InvalidScale(SlopechainError):
    pass


class DuplicateSymbol(SlopechainError):
    pass


class MissingSymbol(SlopechainError):
    pass


class NotNested(SlopechainError):
    pass


class IndexOutOfRange(SlopechainError, IndexError):
    pass


class InternalInvariantError(SlopechainError):
    """An internal self-check failed: two routes to the same exact quantity
    disagree.  Always a bug in the package, never a property of the input."""


class AmbiguousCandidates(SlopechainError):
    """Two distinct maximal-dimension slope maximizers; the candidate set is
    inconsistent with chain uniqueness and the caller must see the witnesses."""

    def __init__(self, message, first, second):
        super().__init__(message)
        self.first = first
        self.second = second


class CertificateViolation(SlopechainError):
    """An exact check failed.  `kind` names the check, `witness` carries the
    offending candidate (coefficient-lattice rows) and `step` the chain step."""

    def __init__(self, kind, message, step=None, witness=None):
        super().__init__(f"{kind}: {message}")
        self.kind = kind
        self.step = step
        self.witness = witness


class EnumerationTooLarge(SlopechainError):
    pass


class MatrixTooLarge(SlopechainError):
    pass


class SymbolicModelNotSpecialized(SlopechainError):
    pass


class SamplingExhausted(SlopechainError):
    pass


class ParseError(SlopechainError):
    pass


class ValidationError(SlopechainError):
    def __init__(self, field, message):
        super().__init__(f"{field}: {message}")
        self.field = field


class UsageError(SlopechainError):
    """A command line that names no command, or gives a command options it
    does not take."""
