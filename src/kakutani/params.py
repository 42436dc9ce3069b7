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
continued-fraction heuristic, never assumed from the float alone.  The
alpha of a loop tuple is the unique float at which a computed gap,
monotone in alpha, stops being negative; bisection finds it from any
bracket whose two ends have been checked, the window of a Newton
estimate or, failing that, all of [ulp(0), 1/2].
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
    "check_loop_triple",
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
    """Rational log-length ratio r = n/m in lowest terms, n >= m >= 1: the
    one validator of a pair, built by every function that takes n and m."""

    __slots__ = ()

    def __new__(cls, n: int, m: int) -> "Commensurable":
        if not (isinstance(n, int) and isinstance(m, int)):
            raise ParameterError(f"need integers n and m, got ({n!r}, {m!r})")
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


def check_loop_triple(n: int, m: int, k: int) -> None:
    """Validate the loop counts of a three-interval rule: n >= m >= k >= 1,
    coprime overall, not all equal."""
    if not (n >= m >= k >= 1):
        raise ParameterError(f"need n >= m >= k >= 1, got ({n}, {m}, {k})")
    if math.gcd(math.gcd(n, m), k) != 1:
        raise ParameterError(f"loop counts ({n}, {m}, {k}) must be coprime overall")
    if n == m == k:
        raise ParameterError("equal loop counts give the trivial lattice split")


#: Half-width of the window around the Newton estimate of a flower's
#: alpha, relative to the estimate.
_WINDOW = 2.0**-46
#: No estimate is made below this: Newton's iterates could underflow to
#: 0, where the gap's log is undefined, and near the subnormal floats
#: x*(1 -+ 2**-46) no longer holds the window's relative width.
_TINY = 2.0**-1000


def _alpha_estimate(loops: tuple[int, ...]) -> float:
    """A float estimate of the alpha of ``_loop_alpha``, by Newton's method,
    or NaN where it finds none.

    Newton on h(u) = sum(exp(u * c_i / c_1)) - 1, u = log(alpha), is
    defined everywhere and, h being convex and increasing, falls
    monotonically onto the root from u = -log(p), where h >= 0.  As the
    terms sum to 1, h is only good to about 2**-53, and the root to
    2**-53 / h'(u) in u: too coarse for the window of ``_loop_alpha``
    where c_1 / c_p is large.  So once its steps are below 2**-20, one
    Newton step on the gap of ``_loop_alpha`` ends it, whose slope in u
    is c_p + c_1 * x * S'(x) / (1 - S).
    """
    top, last = loops[0], loops[-1]
    powers = [c / top for c in loops[1:]]  # the first loop's power is 1
    x = 1.0 / len(loops)
    for _ in range(64):
        h, slope = x - 1.0, x
        for p in powers:
            t = x**p
            h += t
            slope += p * t
        step = h / slope
        x *= math.exp(-step)
        if step < 2.0**-20 or not x > _TINY:
            break
    s, slope = x, x
    for p in powers[:-1]:
        t = x**p
        s += t
        slope += p * t
    if not (x > _TINY and s < 1.0):
        return math.nan  # no estimate: the full bisection runs
    gap = last * math.log(x) - top * math.log1p(-s)
    slope = last + top * slope / (1.0 - s)
    return x - x * (gap / slope)


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

    The result is the threshold float of the computed gap, the least
    float at which it is not negative.  The computed gap is monotone in
    alpha, as every operation in it is (log, log1p, powers with positive
    exponents, sums, products with the loop counts, the last
    difference) and each is rounded to within about half an ulp, so
    that float is unique, and bisection finds it from any bracket whose
    lower end is checked negative and whose upper end is not.  (An
    error margin would not carry this: at tiny alphas, such as that of
    loops (319, 2, 1), the exact gap at the edges is below the rounding
    error.)  The bracket is the window x*(1 -+ 2**-46) around a Newton
    estimate x of the root (``_alpha_estimate``) when both its edges
    check, and [ulp(0), 1/2] when one does not or when the estimate
    nears the subnormal floats.  On every coprime ratio up to 450, every
    three-loop rule with n <= 40 and every four-loop one with n <= 12
    the two brackets give the same float.
    """
    top, last = loops[0], loops[-1]
    # S is alpha, the first loop's term, plus the terms of the loops between
    powers = [c / top for c in loops[1:-1]]

    def below(x: float) -> bool:
        s = x
        for p in powers:
            s += x**p
        return s < 1.0 and last * math.log(x) - top * math.log1p(-s) < 0.0

    lo, hi = math.ulp(0.0), 0.5
    guess = _alpha_estimate(loops)
    a, b = guess * (1.0 - _WINDOW), guess * (1.0 + _WINDOW)
    if _TINY < a and below(a) and not below(b):
        lo, hi = a, b
    while True:
        mid = 0.5 * (lo + hi)
        if not (lo < mid < hi):
            return hi
        if below(mid):
            lo = mid
        else:
            hi = mid


def solve_alpha(n: int, m: int) -> float:
    """Solve ``alpha**m == (1 - alpha)**n`` for alpha in ``(0, 1/2]``."""
    return _loop_alpha(Commensurable(n, m))


def f_alpha_poly(n: int, m: int) -> IntPolynomial:
    """The nonzero-spectrum polynomial x^n - x^(n-m) - 1 for ratio n/m,
    the loop polynomial of the flower with loops (n, m): its root
    xi > 1 is the inflation constant alpha**(-1/n)."""
    Commensurable(n, m)  # validates the pair
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


#: Defect |m*r - n| below which a convergent n/m is accepted, its
#: rounding bound included.
_COMMENSURABLE_TOLERANCE = 1e-10


def detect_commensurability(alpha: float, max_denominator: int) -> RatioClass:
    """Classify the ratio r of ``alpha`` as rational or not, heuristically.

    Scans continued-fraction convergents n/m of r with m bounded by
    ``max_denominator`` and accepts the first one whose defect
    ``|m*r - n|``, plus the bound ``n * 2**-48`` on its rounding, is
    below ``_COMMENSURABLE_TOLERANCE``.  The defect is the log-scale
    defect ``|m*log(alpha) - n*log(1 - alpha)|`` in units of
    ``|log(1 - alpha)|``, so one tolerance holds at every alpha: the log
    defect itself shrinks with alpha, and would pass nearly every small
    alpha.  The rounding bound covers the few ulps r carries, which
    refuses every n of more than some 28,000 (r past 2**53 would
    otherwise pass as n = r, m = 1 with defect 0).

    This is a bounded heuristic: a truly irrational ratio is reported
    Incommensurable only relative to the denominator bound.
    """
    check_alpha(alpha)
    if max_denominator < 1:
        raise ParameterError("max_denominator must be >= 1")
    r = r_of_alpha(alpha)
    for n, m in _convergents(r, max_denominator):
        if n < m or n < 1:
            continue
        if abs(m * r - n) + n * 2.0**-48 < _COMMENSURABLE_TOLERANCE:
            return Commensurable(n, m)
    return Incommensurable(r)
