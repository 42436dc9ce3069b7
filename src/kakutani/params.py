"""Splitting-ratio arithmetic.

A ratio ``alpha`` in ``(0, 1/2]`` cuts an interval into a left piece of
relative length ``alpha`` and a right piece of relative length
``1 - alpha``.  Everything else in the package is governed by the
quotient ``r = log(alpha) / log(1 - alpha)``: when ``r = n/m`` is
rational the construction is commensurable, meaning all tile lengths are
integer powers of a single inflation constant ``xi = alpha**(-1/n)``,
and a finite fixed-scale substitution covers the multiscale one.  When
``r`` is irrational no two distinct length exponents ever collide.

Floats carry ``alpha`` here; commensurability is decided by a bounded
continued-fraction heuristic, never assumed from the float alone.
"""
from __future__ import annotations

import math
from typing import NamedTuple

from .errors import ParameterError, ResourceLimitError
from .polynomials import IntPolynomial, loop_polynomial

__all__ = [
    "Commensurable",
    "Incommensurable",
    "RatioClass",
    "check_alpha",
    "check_exponent_pair",
    "detect_commensurability",
    "f_alpha_poly",
    "r_of_alpha",
    "solve_alpha",
]

#: Largest degree of a nonzero spectrum the Solomon test will root-find.
#: One pure-Python Aberth sweep costs ~degree**2 and the sweep count grows
#: with the degree: ``classify`` took 8-9 s at degree 450 and 11 s at 500
#: (2-vCPU Xeon, CPython 3.11).  Larger spectra are refused up front.
#: It lives here, not in ``spectral`` (which re-exports it), so that the
#: commands that only check it load no root finder.
MAX_SPECTRAL_DEGREE = 450


def check_spectral_degree(degree: int) -> None:
    """Refuse a nonzero spectrum of degree above ``MAX_SPECTRAL_DEGREE``."""
    if degree > MAX_SPECTRAL_DEGREE:
        raise ResourceLimitError(
            f"a spectrum of degree {degree} is above the limit {MAX_SPECTRAL_DEGREE}"
        )


class Commensurable(NamedTuple("Commensurable", [("n", int), ("m", int)])):
    """Rational log-length ratio r = n/m in lowest terms, n >= m >= 1."""

    __slots__ = ()

    def __new__(cls, n: int, m: int) -> "Commensurable":
        if n < 1 or m < 1 or n < m:
            raise ParameterError(f"need n >= m >= 1, got ({n}, {m})")
        if math.gcd(n, m) != 1:
            raise ParameterError(f"({n}, {m}) is not in lowest terms")
        return super().__new__(cls, n, m)

    @classmethod
    def _make(cls, iterable) -> "Commensurable":  # so _replace validates too
        return cls(*iterable)


class Incommensurable(NamedTuple):
    """Irrational log-length ratio, kept as its float approximation."""

    r: float


RatioClass = Commensurable | Incommensurable


def check_alpha(alpha: float) -> None:
    """Validate a splitting ratio: alpha in (0, 1/2]; NaN is refused, and
    so is an alpha below about 3.9e-306, whose ratio r overflows a float."""
    if not (0.0 < alpha <= 0.5):
        raise ParameterError(f"alpha must lie in (0, 1/2], got {alpha!r}")
    if math.log(alpha) / math.log1p(-alpha) == math.inf:
        raise ParameterError(
            f"alpha = {alpha!r} is too small: r = log(alpha) / log(1 - alpha) overflows a float"
        )


def check_exponent_pair(n: int, m: int) -> None:
    """Validate a commensurable exponent pair: integers, n >= m >= 1, coprime."""
    if not (isinstance(n, int) and isinstance(m, int)):
        raise ParameterError("exponent pair must be integers")
    if n < 1 or m < 1:
        raise ParameterError(f"exponents must be positive, got ({n}, {m})")
    if n < m:
        raise ParameterError(f"need n >= m, got ({n}, {m})")
    if math.gcd(n, m) != 1:
        raise ParameterError(f"({n}, {m}) must be coprime")


def _loop_alpha(loops: tuple[int, ...]) -> float:
    """The alpha = xi**-c_1 of a flower with loops c_1 >= ... >= c_p.

    xi > 1 solves sum(xi**-c_i) = 1, so alpha = xi**-c_1 solves
    sum(alpha**(c_i / c_1)) = 1.  Moving the last term to the right and
    taking logs gives the gap c_p*log(alpha) - c_1*log1p(-S) with S the
    sum over i < p, +inf once S >= 1.  It is strictly increasing in
    alpha, negative near zero, and its root is at most 1/p <= 1/2 (the
    smallest of p terms summing to one), so bisection on
    [ulp(0), 1/2] runs until the bracket is two adjacent floats.  With
    two loops (n, m) the gap is m*log(alpha) - n*log1p(-alpha).
    """
    top, last = loops[0], loops[-1]
    # S is alpha, the first loop's term, plus the terms of the loops between
    powers = [c / top for c in loops[1:-1]]
    lo, hi = math.ulp(0.0), 0.5
    while True:
        mid = 0.5 * (lo + hi)
        if not (lo < mid < hi):
            return hi
        s = mid
        for p in powers:
            s += mid**p
        if s < 1.0 and last * math.log(mid) - top * math.log1p(-s) < 0.0:
            lo = mid
        else:
            hi = mid


def solve_alpha(n: int, m: int) -> float:
    """Solve ``alpha**m == (1 - alpha)**n`` for alpha in ``(0, 1/2]``."""
    check_exponent_pair(n, m)
    return _loop_alpha((n, m))


def f_alpha_poly(n: int, m: int) -> IntPolynomial:
    """The nonzero-spectrum polynomial x^n - x^(n-m) - 1 for ratio n/m,
    the loop polynomial of the flower with loops (n, m): its root
    xi > 1 is the inflation constant alpha**(-1/n)."""
    check_exponent_pair(n, m)
    if n == m:
        raise ParameterError("the lattice ratio (1, 1) has spectrum {2}")
    return loop_polynomial(n, (n, m))


def r_of_alpha(alpha: float) -> float:
    """The log-length ratio ``log(alpha) / log(1 - alpha)``, always >= 1."""
    check_alpha(alpha)
    return math.log(alpha) / math.log1p(-alpha)


def _convergents(x: float, max_q: int):
    """Continued-fraction convergents p/q of x >= 1 with q <= max_q."""
    p0, q0 = 1, 0
    a = math.floor(x)
    p1, q1 = a, 1
    frac = x - a
    yield p1, q1
    for _ in range(64):
        if frac <= 1e-15 or q1 > max_q:
            return
        x = 1.0 / frac
        a = math.floor(x)
        frac = x - a
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
        if q1 > max_q:
            return
        yield p1, q1


#: Log-scale defect below which a convergent n/m is accepted.
_COMMENSURABLE_TOLERANCE = 1e-12


def detect_commensurability(alpha: float, max_denominator: int) -> RatioClass:
    """Classify the ratio r of ``alpha`` as rational or not, heuristically.

    Scans continued-fraction convergents n/m of r with m bounded by
    ``max_denominator`` and accepts the first one whose defect
    ``|m*log(alpha) - n*log(1 - alpha)|`` is below
    ``_COMMENSURABLE_TOLERANCE``.  The defect is measured in log scale:
    for large exponents both ``alpha**m`` and ``(1-alpha)**n`` underflow
    toward zero and their absolute difference would pass any fixed
    cutoff vacuously, while the log-scale defect stays honest at every
    denominator.

    This is a bounded heuristic: a truly irrational ratio is reported
    Incommensurable only relative to the denominator bound.
    """
    check_alpha(alpha)
    if max_denominator < 1:
        raise ParameterError("max_denominator must be >= 1")
    r = r_of_alpha(alpha)
    la = math.log(alpha)
    lb = math.log1p(-alpha)
    for n, m in _convergents(r, max_denominator):
        if n < m or n < 1:
            continue
        if abs(m * la - n * lb) < _COMMENSURABLE_TOLERANCE:
            return Commensurable(n, m)
    return Incommensurable(r)
