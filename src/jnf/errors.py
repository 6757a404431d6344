"""Exception hierarchy shared by all jnf modules."""


class JnfError(Exception):
    """Base class for all library errors."""


class FieldMismatchError(JnfError):
    """Operands belong to different coefficient fields."""


class NonMonicDivisorError(JnfError):
    """A division routine that requires a monic divisor got a non-monic one."""


class UnsupportedFieldError(JnfError):
    """The requested operation is not available over this field
    (e.g. Faddeev over small characteristic, Yun over tiny fields)."""


class NeedsFactorizationError(JnfError):
    """The built-in factorizer got stuck; the caller must supply factor hints.

    ``residual`` holds the monic part that could not be factored and
    ``multiplicity`` its multiplicity in the input polynomial.
    """

    def __init__(self, message, residual=None, multiplicity=1):
        super().__init__(message)
        self.residual = residual
        self.multiplicity = multiplicity


class InvalidHintError(JnfError):
    """A supplied factor hint does not reproduce the polynomial."""


class InternalConsistencyError(JnfError):
    """An invariant that the algorithms guarantee was violated; indicates a
    bad factorization input or a bug."""


class ParseError(JnfError):
    """Malformed matrix, hint, or JSON input."""
