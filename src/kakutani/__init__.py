"""Interval substitution tilings on the line.

The package generates multiscale tilings driven by a two-piece interval
splitting rule, builds the fixed-scale substitution that covers them
when the two split logarithms are commensurable, and decides whether
the resulting point sets are uniformly spread, by exact spectral
analysis of the substitution matrix and by direct discrepancy
measurement.

The top level holds what the README and the scripts use; everything
else is imported from its submodule.
"""
from ._version import __version__
from .cover import build_rho, substitution_matrix
from .discrepancy import discrepancy_scan, dyadic_windows, growth_fit
from .engine import generate_patch
from .errors import KakutaniError, NumericError, ParameterError, ResourceLimitError
from .params import Commensurable, solve_alpha
from .spectral import SpreadClass, classify_spreadness

__all__ = [
    "__version__",
    "Commensurable",
    "KakutaniError",
    "NumericError",
    "ParameterError",
    "ResourceLimitError",
    "SpreadClass",
    "build_rho",
    "classify_spreadness",
    "discrepancy_scan",
    "dyadic_windows",
    "generate_patch",
    "growth_fit",
    "solve_alpha",
    "substitution_matrix",
]
