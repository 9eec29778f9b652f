"""Growth dynamics of conformal maps: smooth domains, slits, and the log gas.

The package realizes three faces of one family of planar growth processes:

* :mod:`todaflow.laurent` / :mod:`todaflow.growth` -- truncated Laurent maps
  evolved by harmonic-moment flows (Laplacian growth of smooth domains);
* :mod:`todaflow.loewner` / :mod:`todaflow.hydro` -- slit growth through the
  radial Loewner equation and its one-function transport reduction;
* :mod:`todaflow.dyson` -- the N-particle log gas whose large-N equilibrium
  support reproduces both kinds of domains.

:mod:`todaflow.cli` binds them into a scenario runner (``todaflow`` script).
"""

__version__ = "0.1.0"

from .errors import (
    BreakdownError,
    ConfigError,
    CuspError,
    InsufficientSamplesError,
    IntegrationBreakdownError,
    NonUnivalentError,
    RootFindError,
    ShockError,
    TodaflowError,
)
from .laurent import LaurentMap

__all__ = [
    "__version__",
    "LaurentMap",
    "BreakdownError",
    "ConfigError",
    "CuspError",
    "InsufficientSamplesError",
    "IntegrationBreakdownError",
    "NonUnivalentError",
    "RootFindError",
    "ShockError",
    "TodaflowError",
]
