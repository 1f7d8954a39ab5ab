"""Exception types shared across the package.

Two failure families matter to callers (and to the CLI exit-code contract):
inputs outside an operation's domain, and iterative schemes that fail to
reach their tolerance.  Settings arrive only as arguments, and a bad one
(a tolerance that is not positive) is a domain error.
"""


class DomainError(ValueError):
    """Argument or parameter outside the operation's domain."""


class PoleError(DomainError):
    """Evaluation at (or requiring) a Gamma pole.

    Carries the offending value in ``value``.
    """

    def __init__(self, message, value):
        super().__init__(f"{message} (at {value!r})")
        self.value = value


class ConvergenceError(RuntimeError):
    """A series or quadrature failed to converge within its budget."""
