"""Independent reference values for checking the benchmark's outputs.

Everything here is restated from the paper's statements, not imported
from the package under test, so that a refactor of the package cannot
move the reference along with the result:

* the five spread ratios and the single Boundary ratio;
* the three-interval Pisot families, with numpy's companion-matrix
  roots deciding NotSpread versus Boundary outside them;
* tile counts, by the walk recurrence in the commensurable case and by
  a lattice-path (binomial) sum in the multiscale case;
* prefix counts and the commensurable endpoint density;
* the least-squares power-law exponent of a deviation series.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

SPREAD_RATIOS = frozenset({Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3), Fraction(4)})
BOUNDARY_RATIOS = frozenset({Fraction(5)})

# Same decision rule as the definition of the semi-flow: a tile of
# log-length within this slack of zero has length one and is a leaf.
LENGTH_ONE_SLACK = 1e-12


def spread_verdict(n: int, m: int) -> str:
    """Solomon verdict for the coprime ratio n/m, from the paper's list."""
    r = Fraction(n, m)
    if r in SPREAD_RATIOS:
        return "Spread"
    if r in BOUNDARY_RATIOS:
        return "Boundary"
    return "NotSpread"


def trinomial_roots(n: int, m: int) -> np.ndarray:
    """Roots of x^n - x^(n-m) - 1, sorted by decreasing modulus."""
    coeffs = [0] * (n + 1)  # descending powers
    coeffs[0] += 1
    coeffs[m] -= 1
    coeffs[n] -= 1
    roots = np.roots(coeffs)
    return roots[np.argsort(-np.abs(roots), kind="stable")]


def three_loop_coeffs(n: int, m: int, k: int) -> dict[int, int]:
    """Power -> coefficient of x^n - x^(n-m) - x^(n-k) - 1, merged."""
    terms = {n: 1}
    for power in (n - m, n - k, 0):
        terms[power] = terms.get(power, 0) - 1
    return {p: c for p, c in terms.items() if c}


def in_pisot_family(terms: dict[int, int]) -> bool:
    """Membership in the three Pisot families of three-interval rules:
    x^d - 2x^(d-1) - 1 (d >= 2), x^d - x^(d-1) - x^(d-2) - 1 (odd d >= 3)
    and the sporadic x^5 - x^4 - x^2 - 1."""
    d = max(terms)
    if terms == {d: 1, d - 1: -2, 0: -1} and d >= 2:
        return True
    if d >= 3 and d % 2 == 1 and terms == {d: 1, d - 1: -1, d - 2: -1, 0: -1}:
        return True
    return terms == {5: 1, 4: -1, 2: -1, 0: -1}


def three_loop_verdict(n: int, m: int, k: int) -> str:
    """Spread for the Pisot families; otherwise NotSpread when a second
    root lies outside the unit circle and Boundary when it lies on it."""
    terms = three_loop_coeffs(n, m, k)
    if in_pisot_family(terms):
        return "Spread"
    degree = max(terms)
    coeffs = [terms.get(degree - i, 0) for i in range(degree + 1)]
    moduli = sorted(np.abs(np.roots(coeffs)), reverse=True)
    return "NotSpread" if moduli[1] > 1.0 + 1e-6 else "Boundary"


def commensurable_count(n: int, m: int, ell: int) -> int:
    """Tiles after ell steps: N(e) = N(e - n) + N(e - m), N(e <= 0) = 1."""
    counts = [1] * (ell + 1)
    for e in range(1, ell + 1):
        counts[e] = (counts[e - n] if e >= n else 1) + (counts[e - m] if e >= m else 1)
    return counts[ell]


def inflation(n: int, m: int) -> float:
    """The root xi > 1 of x^n - x^(n-m) - 1, by bisection on [1, 2]."""
    lo, hi = 1.0, 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if mid**n - mid ** (n - m) - 1.0 < 0.0:
            lo = mid
        else:
            hi = mid
    return hi


def commensurable_density(n: int, m: int) -> float:
    """Endpoints per unit length: the limit of N(ell) / xi**ell."""
    if n == m:
        return 1.0
    xi = inflation(n, m)
    ell = 3000  # the secondary terms decay like |lambda2 / xi|**ell
    return math.exp(math.log(commensurable_count(n, m, ell)) - ell * math.log(xi))


class Tree:
    """The subdivision tree of the multiscale patch at depth t, counted
    exactly; node (a, b) has scaled length e**(t + a*log(alpha) + b*log(1-alpha))."""

    def __init__(self, alpha: float, t: float):
        self.t = t
        self.la = math.log(alpha)
        self.lb = math.log1p(-alpha)
        self._below: dict[tuple[int, int], int] = {}

    def internal(self, a: int, b: int) -> bool:
        return self.t + a * self.la + b * self.lb > LENGTH_ONE_SLACK

    def width(self, a: int, b: int) -> float:
        return math.exp(self.t + a * self.la + b * self.lb)

    def total(self) -> int:
        """Leaf count as a sum over internal nodes of (paths to the node)
        times (children that are leaves); internality is monotone in
        (a, b), so every path to an internal node stays internal."""
        if not self.internal(0, 0):
            return 1
        total = 0
        a = 0
        while self.internal(a, 0):
            b = 0
            while self.internal(a, b):
                leaves = (not self.internal(a + 1, b)) + (not self.internal(a, b + 1))
                if leaves:
                    total += math.comb(a + b, a) * leaves
                b += 1
            a += 1
        return total

    def below(self, a: int, b: int) -> int:
        """Leaves under node (a, b), memoized."""
        key = (a, b)
        hit = self._below.get(key)
        if hit is not None:
            return hit
        stack = [key]
        while stack:
            node = stack[-1]
            if node in self._below:
                stack.pop()
                continue
            if not self.internal(*node):
                self._below[node] = 1
                stack.pop()
                continue
            kids = ((node[0] + 1, node[1]), (node[0], node[1] + 1))
            todo = [c for c in kids if c not in self._below]
            if todo:
                stack.extend(todo)
            else:
                self._below[node] = self._below[kids[0]] + self._below[kids[1]]
                stack.pop()
        return self._below[key]

    def prefix(self, x: float) -> int:
        """Left endpoints in [0, x] of the patch anchored at zero."""
        count, a, b, left = 0, 0, 0, 0.0
        while self.internal(a, b):
            boundary = left + self.width(a + 1, b)
            if x < boundary:
                a += 1
            else:
                count += self.below(a + 1, b)
                left = boundary
                b += 1
        return count + (1 if left <= x else 0)


def power_slope(windows, values) -> float:
    """Least-squares slope of log(value) against log(window)."""
    xs = [math.log(w) for w in windows]
    ys = [math.log(max(v, 1e-12)) for v in values]
    mx = math.fsum(xs) / len(xs)
    my = math.fsum(ys) / len(ys)
    num = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return num / math.fsum((x - mx) ** 2 for x in xs)
