"""Exception types shared across the package."""


class TodaflowError(Exception):
    """Base class for all package-specific failures."""


class SeriesBudgetError(TodaflowError):
    """A series operation would need more Fourier modes than the grid resolves."""


class NonUnivalentError(TodaflowError):
    """A map failed the boundary univalence witness."""

    def __init__(self, message, theta=None):
        super().__init__(message)
        self.theta = theta


class CuspError(TodaflowError):
    """|z'| vanished on the boundary grid; smooth growth has broken down."""

    def __init__(self, message, theta=None):
        super().__init__(message)
        self.theta = theta


class RootFindError(TodaflowError):
    """Newton inversion of the map failed to converge."""


class IntegrationBreakdownError(TodaflowError):
    """A Loewner trajectory left the domain where the ODE is valid."""


class InsufficientSamplesError(TodaflowError):
    """Too few surviving tracked points for a statistical estimate."""


class ShockError(TodaflowError):
    """Characteristics crossed: the classical hydrodynamic solution ended."""

    def __init__(self, message, s_star=None):
        super().__init__(message)
        self.s_star = s_star


class NonFiniteResultError(TodaflowError):
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
