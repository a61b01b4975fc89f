"""Exception types shared across the package."""


class ValidationError(ValueError):
    """Input violates a documented precondition (dimension, tolerance, range)."""


class DimensionMismatch(ValidationError):
    """Operands have incompatible dimensions."""


class SolverFailure(RuntimeError):
    """The SDP backend could not produce a certified optimum.

    ``status`` is ``"numerical_failure"``.
    """

    def __init__(self, status, message):
        super().__init__(message)
        self.status = status
