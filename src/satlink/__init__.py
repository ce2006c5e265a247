"""Satellite-link engineering toolkit.

Orbit geometry, RF link budgets, Shannon/MODCOD capacity, multi-beam
throughput, phased-array figures, constellation footprints and NTN project
scenario checks, with a CLI front end (`satlink`).

`import satlink` loads nothing until a name is used: each submodule and each
re-exported name loads on first access. Only the antenna pattern cut needs
numpy, which `antenna.pattern_csv` imports when it runs, so the rest of
satlink never pays for numpy; no satlink module needs scipy. The `satlink`
CLI alone still imports both, only for the benchmark's import probe.
"""

__version__ = "0.1.0"

# Each exported name -> the submodule that defines it; a submodule maps to itself.
_HOME = {
    **{name: name for name in ("antenna", "capacity", "constellation", "errors", "geometry", "linkbudget",
                               "quantities", "scenario")},
    **dict.fromkeys(("DEFAULT_CONSTANTS", "PhysicalConstants", "band_lookup", "db_from_linear", "linear_from_db"),
                    "quantities"),
    **dict.fromkeys(("DomainError", "NoFeasibleModcodError", "NoSidelobeError", "NotFoundError", "OutOfBandError",
                     "ParseError", "SatlinkError", "ValidationError"), "errors"),
}

__all__ = [name for name in _HOME if name != "errors"] + ["__version__"]


def __getattr__(name):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # `__import__`, unlike importlib.import_module, shows in `python -X importtime`;
    # given a fromlist, it returns the submodule rather than this package.
    module = __import__(f"{__name__}.{home}", fromlist=["*"])
    value = globals()[name] = module if home == name else getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *_HOME})
