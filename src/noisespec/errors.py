"""Exception types shared across the package.

ValidationError covers rejected inputs and broken preconditions; NumericError
covers failures of the numerical machinery itself (a quadrature that does
not converge).  The CLI maps them to distinct exit codes.
"""


class ValidationError(ValueError):
    """An input violates a documented invariant."""


class NumericError(RuntimeError):
    """A numerical routine could not reach its accuracy contract."""
