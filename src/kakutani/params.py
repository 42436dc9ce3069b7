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
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParameterError

__all__ = [
    "Commensurable",
    "Incommensurable",
    "RatioClass",
    "check_alpha",
    "check_exponent_pair",
    "detect_commensurability",
    "r_of_alpha",
    "solve_alpha",
]


@dataclass(frozen=True)
class Commensurable:
    """Rational log-length ratio r = n/m in lowest terms, n >= m >= 1."""

    n: int
    m: int

    def __post_init__(self) -> None:
        if self.n < 1 or self.m < 1 or self.n < self.m:
            raise ParameterError(f"need n >= m >= 1, got ({self.n}, {self.m})")
        if math.gcd(self.n, self.m) != 1:
            raise ParameterError(f"({self.n}, {self.m}) is not in lowest terms")

    @property
    def ratio(self) -> Fraction:
        return Fraction(self.n, self.m)


@dataclass(frozen=True)
class Incommensurable:
    """Irrational log-length ratio, kept as its float approximation."""

    r: float


RatioClass = Commensurable | Incommensurable


def check_alpha(alpha: float) -> None:
    """Validate a splitting ratio: alpha in (0, 1/2]; NaN is refused."""
    if not (0.0 < alpha <= 0.5):
        raise ParameterError(f"alpha must lie in (0, 1/2], got {alpha!r}")


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


def solve_alpha(n: int, m: int) -> float:
    """Solve ``alpha**m == (1 - alpha)**n`` for alpha in ``(0, 1/2]``.

    The difference of logs is strictly increasing in alpha, negative
    near zero and nonnegative at 1/2, so plain bisection converges to
    the unique root.  Iterates until the bracket collapses to adjacent
    floats, which leaves the residual at roundoff level.
    """
    check_exponent_pair(n, m)
    if n == m:
        return 0.5

    def gap(a: float) -> float:
        return m * math.log(a) - n * math.log1p(-a)

    lo, hi = 1e-12, 0.5
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if not (lo < mid < hi):
            break
        if gap(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return hi


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


def detect_commensurability(
    alpha: float, max_denominator: int, tolerance: float = 1e-12
) -> RatioClass:
    """Classify the ratio r of ``alpha`` as rational or not, heuristically.

    Scans continued-fraction convergents n/m of r with m bounded by
    ``max_denominator`` and accepts the first one whose defect
    ``|m*log(alpha) - n*log(1 - alpha)|`` is below ``tolerance``.  The
    defect is measured in log scale: for large exponents both
    ``alpha**m`` and ``(1-alpha)**n`` underflow toward zero and their
    absolute difference would pass any fixed cutoff vacuously, while the
    log-scale defect stays honest at every denominator.

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
        if abs(m * la - n * lb) < tolerance:
            return Commensurable(n, m)
    return Incommensurable(r)
