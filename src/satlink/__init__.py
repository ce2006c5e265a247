"""Satellite-link engineering toolkit.

Orbit geometry, RF link budgets, Shannon/MODCOD capacity, multi-beam
throughput, phased-array figures, constellation footprints and NTN project
scenario checks, with a CLI front end (`satlink`).

`satlink.antenna` is the only module that needs numpy and scipy; it loads on
first use, so `import satlink` for the other modules does not pay for them.
"""

from . import capacity, constellation, geometry, linkbudget, quantities, scenario
from .errors import (
    DomainError,
    NoFeasibleModcodError,
    NoSidelobeError,
    NotFoundError,
    OutOfBandError,
    ParseError,
    SatlinkError,
    ValidationError,
)
from .quantities import (
    DEFAULT_CONSTANTS,
    PhysicalConstants,
    Power,
    band_lookup,
    db_from_linear,
    linear_from_db,
)

__version__ = "0.1.0"

__all__ = [
    "antenna",
    "capacity",
    "constellation",
    "geometry",
    "linkbudget",
    "quantities",
    "scenario",
    "DEFAULT_CONSTANTS",
    "DomainError",
    "NoFeasibleModcodError",
    "NoSidelobeError",
    "NotFoundError",
    "OutOfBandError",
    "ParseError",
    "PhysicalConstants",
    "Power",
    "SatlinkError",
    "ValidationError",
    "band_lookup",
    "db_from_linear",
    "linear_from_db",
    "__version__",
]


def __getattr__(name):
    if name == "antenna":
        # An import statement, unlike importlib.import_module, shows in
        # `python -X importtime`; `from . import antenna` would re-enter here.
        import satlink.antenna

        return satlink.antenna
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
