"""Interval substitution tilings on the line.

The package generates multiscale tilings driven by a two-piece interval
splitting rule, builds the fixed-scale substitution that covers them
when the two split logarithms are commensurable, and decides whether
the resulting point sets are uniformly spread, by exact spectral
analysis of the substitution matrix and by direct discrepancy
measurement.

The top level holds what the README and the scripts use; everything
else is imported from its submodule.  Importing the package loads this
module alone: each top-level name but the version, the error types
included, loads its submodule on first access (PEP 562), so a caller
pays only for the modules it uses.
"""
import importlib

__version__ = "0.1.0"

#: The submodule of each top-level name but the version, loaded on first access.
_LAZY = {
    "Commensurable": "params",
    "KakutaniError": "errors",
    "NumericError": "errors",
    "ParameterError": "errors",
    "ResourceLimitError": "errors",
    "SpreadClass": "spectral",
    "build_rho": "cover",
    "classify_spreadness": "spectral",
    "discrepancy_scan": "discrepancy",
    "dyadic_windows": "discrepancy",
    "generate_patch": "engine",
    "growth_fit": "discrepancy",
    "solve_alpha": "params",
}

__all__ = ["__version__", *_LAZY]


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
