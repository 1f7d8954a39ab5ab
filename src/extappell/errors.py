"""Exception types shared across the package.

Two failure families matter to callers (and to the CLI exit-code contract):
inputs outside an operation's domain, and iterative schemes that fail to
reach their tolerance.  A malformed setting (an environment variable) is
a third, a usage error.
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


class UsageError(ValueError):
    """A setting that cannot be read, such as a non-integer level budget."""
