"""Exception classes shared across the package.

The CLI maps each class to its own exit code, so errors raised anywhere in
the library stay distinguishable at the process boundary.
"""


class RiccatiLieError(Exception):
    """Base class for all library errors."""


class ConfigError(RiccatiLieError):
    """Malformed configuration file, solution table, or grammar input."""


class TimeFnSyntaxError(ConfigError):
    """Syntax error in the time-function grammar.

    `position` is the character offset of the offending token in the
    original text.
    """

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DomainError(RiccatiLieError):
    """State outside the admissible domain.

    Raised for p >= 0 (off the momentum half-plane), the wrong Legendre
    branch (v + U <= 0), a non-positive leading cubic coefficient,
    singular or orbit-exiting group actions, and out-of-range trajectory
    sampling.
    """


class GuardViolation(DomainError):
    """An integrated trajectory reached the guarded domain boundary.

    `last_valid_t` is the largest time at which the state still satisfied
    the guard (localized by step bisection).
    """

    def __init__(self, message, last_valid_t):
        super().__init__(message)
        self.last_valid_t = last_valid_t


class GenericityError(RiccatiLieError):
    """Superposition-rule genericity guard tripped (F0 ~ 0)."""


class BranchError(GenericityError):
    """No branch-compatible reconstruction: sigma0, the sqrt(-p0) bracket, is <= 0."""


class NumericError(RiccatiLieError):
    """Numeric failure: step-size underflow or blow-up during integration,
    or overflow evaluating a time function."""
