"""Exception types shared across the package.

Two families end a CLI run: a :class:`ConfigError` is a configuration the
program refuses before it computes (exit 1), and a :class:`BreakdownError`
is a numerical failure of a run that started (exit 2).
"""


class TodaflowError(Exception):
    """Base class for all package-specific failures."""


class BreakdownError(TodaflowError):
    """A run broke down numerically; every class below it is a breakdown."""


class NonUnivalentError(BreakdownError):
    """A map failed the boundary univalence witness."""

    def __init__(self, message, theta=None):
        super().__init__(message)
        self.theta = theta


class CuspError(BreakdownError):
    """|z'| vanished on the boundary grid; smooth growth has broken down."""

    def __init__(self, message, theta=None):
        super().__init__(message)
        self.theta = theta


class RootFindError(BreakdownError):
    """Newton inversion of the map failed to converge."""


class IntegrationBreakdownError(BreakdownError):
    """An integration left the range where it is valid: a Loewner trajectory hit
    the driving point, or a hydro node solved outside its speed's range."""


class InsufficientSamplesError(BreakdownError):
    """Too few surviving tracked points for a statistical estimate."""


class ShockError(BreakdownError):
    """Characteristics crossed: the classical hydrodynamic solution ended."""

    def __init__(self, message, s_star=None):
        super().__init__(message)
        self.s_star = s_star


class NonFiniteResultError(BreakdownError):
    """A run computed a NaN or an infinity, or overflowed the float range."""


class ConfigError(TodaflowError):
    """Scenario configuration failed validation.

    ``problems`` is a list of (json_pointer, message) pairs covering every
    detected issue, not just the first one.
    """

    def __init__(self, problems):
        self.problems = list(problems)
        lines = "; ".join(f"{ptr}: {msg}" for ptr, msg in self.problems)
        super().__init__(f"invalid configuration: {lines}")
