"""Error taxonomy shared by all modules."""


class WeylcalcError(Exception):
    pass


class InvalidParameter(WeylcalcError, ValueError):
    """A scalar argument is outside its admissible range."""


class InvalidInput(WeylcalcError, ValueError):
    """Structured inputs are malformed or inconsistent (dimension mismatch, ...)."""


class DomainViolation(WeylcalcError, ValueError):
    """Evaluation hit a point where a registered base is not positive."""


class UnsupportedOperation(WeylcalcError, ValueError):
    """The operation would leave the closed expression algebra."""


class UnsupportedSymbol(WeylcalcError, ValueError):
    """The symbol is outside the class an operation is defined for."""


class NumericalFailure(WeylcalcError, RuntimeError):
    """A numeric kernel (linear solve, eigendecomposition) failed."""


class AccuracyWarning(UserWarning):
    """Raised via warnings.warn when a quadrature result looks unreliable."""
