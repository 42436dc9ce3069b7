"""Shared fixtures and independent oracles.

The oracles deliberately avoid the package's own algorithms: plain
bisection for real roots, the quadratic formula, brute-force recursion
for tile counts, and permutation-expansion determinants for small
characteristic polynomials.  Agreement between package and oracle is
then evidence, not circularity.
"""
import cmath
import math
from fractions import Fraction

import pytest


def bisect_root(f, lo, hi, iterations=200):
    """Sign-change bisection; assumes f(lo) < 0 < f(hi) or the reverse."""
    flo = f(lo)
    if flo > 0:
        f, flo = (lambda x, g=f: -g(x)), -flo
    assert f(hi) > 0, "oracle misuse: no sign change on the bracket"
    for _ in range(iterations):
        mid = (lo + hi) / 2.0
        if mid == lo or mid == hi:
            break
        if f(mid) <= 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def alpha_oracle(n, m):
    """Solve alpha**m = (1 - alpha)**n by bisection on the log gap."""
    if n == m:
        return 0.5
    return bisect_root(
        lambda a: m * math.log(a) - n * math.log1p(-a), 1e-12, 0.5
    )


def quadratic_roots(b, c):
    """Roots of x**2 + b*x + c via the formula, largest first.

    Real roots come back as floats ordered descending; a complex pair
    comes back with the positive-imaginary root first.
    """
    disc = b * b - 4.0 * c
    if disc >= 0:
        r1 = (-b + math.sqrt(disc)) / 2.0
        r2 = (-b - math.sqrt(disc)) / 2.0
        return max(r1, r2), min(r1, r2)
    root = cmath.sqrt(complex(disc, 0.0))
    return (-b + root) / 2.0, (-b - root) / 2.0


def brute_count_tiles(alpha, t, slack=1e-12):
    """Count leaves of the splitting tree by direct recursion."""
    la, lb = math.log(alpha), math.log1p(-alpha)

    def walk(log_len):
        if log_len <= slack:
            return 1
        return walk(log_len + la) + walk(log_len + lb)

    return walk(t)


def brute_boundaries(alpha, t, slack=1e-12):
    """Left endpoints of the anchored patch, floats, by direct recursion."""
    la, lb = math.log(alpha), math.log1p(-alpha)
    out = []

    def walk(left, log_len):
        if log_len <= slack:
            out.append(left)
            return
        walk(left, log_len + la)
        walk(left + math.exp(log_len + la), log_len + lb)

    walk(0.0, t)
    return out


def leaves_upto_per_node(alpha, t, upto, slack=1e-12):
    """Left endpoints up to ``upto`` of the leaves of the depth-t tree
    anchored at zero, in order, floats only.

    A depth-first walk that tests every node for a leaf and works out
    its left child's width with ``exp``, node by node, with the same
    float expressions as ``engine.SubdivisionTree``: the per-node walk
    that the direct scan's per-pair tables replace.
    """
    la, lb = math.log(alpha), math.log1p(-alpha)
    stack = [(0, 0, 0.0)]
    while stack:
        a, b, left = stack.pop()
        if left > upto:
            continue
        if t + a * la + b * lb <= slack:
            yield left
        else:
            wl = math.exp(t + (a + 1) * la + b * lb)
            stack.append((a, b + 1, left + wl))
            stack.append((a + 1, b, left))


def direct_scan_per_node(alpha, t, density, windows):
    """Max of |count([0, x]) - density * x| over each window, scanning
    the points of ``leaves_upto_per_node`` one at a time: at each point
    the left limit and the value after the jump, and at each window edge
    the value there."""
    maxima = [0.0] * len(windows)
    running = 0.0
    wi = 0
    count = 0
    for left in leaves_upto_per_node(alpha, t, windows[-1]):
        while left > windows[wi]:
            maxima[wi] = max(running, abs(count - density * windows[wi]))
            wi += 1
        running = max(running, abs(count - density * left))
        count += 1
        running = max(running, count - density * left)
    for j in range(wi, len(windows)):
        maxima[j] = max(running, abs(count - density * windows[j]))
    return tuple(maxima)


def ascending_fold(terms, term_value):
    """Float value of exact position terms, added one at a time with an
    explicit ``+`` in ascending order of their keys, from the integer 0.
    ``term_value(key)`` is the float of one unit term."""
    total = 0
    for key, coeff in sorted(terms):
        total = total + coeff * term_value(key)
    return total


def expansion_char_poly(rows):
    """Characteristic polynomial coefficients (constant first) via
    determinant expansion of (xI - M) over exact Fractions, evaluated
    at deg+1 integer points and interpolated.  Only for small or sparse
    matrices: the work grows with the nonzero partial products."""
    size = range(len(rows))

    def det(matrix):
        # the Leibniz sum over permutations, built one row at a time; a
        # branch stops at its first zero entry, since every permutation
        # extending it contributes zero
        n = len(matrix)
        used = [False] * n
        total = Fraction(0)

        def expand(row, sign, term):
            nonlocal total
            if row == n:
                total += sign * term
                return
            for col in range(n):
                entry = matrix[row][col]
                if used[col] or entry == 0:
                    continue
                # each used column right of col is an inversion with it
                flips = sum(used[col + 1 :])
                used[col] = True
                expand(row + 1, -sign if flips % 2 else sign, term * entry)
                used[col] = False

        expand(0, 1, Fraction(1))
        return total

    deg = len(rows)
    xs = list(range(deg + 1))
    ys = []
    for x in xs:
        shifted = [
            [Fraction(x if i == j else 0) - Fraction(rows[i][j]) for j in size]
            for i in size
        ]
        ys.append(det(shifted))
    # Lagrange interpolation on integer nodes
    coeffs = [Fraction(0)] * (deg + 1)
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, xj in enumerate(xs):
            if j == i:
                continue
            denom *= xi - xj
            basis = [Fraction(0)] + basis
            for k in range(len(basis) - 1):
                basis[k] -= xj * basis[k + 1]
        scale = yi / denom
        for k in range(len(basis)):
            coeffs[k] += scale * basis[k]
    out = []
    for c in coeffs:
        assert c.denominator == 1
        out.append(int(c))
    return out


def coprime_pairs(max_n, min_n=2):
    """All (n, m) with min_n <= n <= max_n, 1 <= m < n, gcd = 1."""
    return [
        (n, m)
        for n in range(min_n, max_n + 1)
        for m in range(1, n)
        if math.gcd(n, m) == 1
    ]


@pytest.fixture(scope="session")
def pv_pairs():
    return ((2, 1), (3, 2), (3, 1), (4, 1))


@pytest.fixture(scope="session")
def printed_alphas():
    """Five-digit split values as printed for the four Pisot ratios."""
    return {(3, 2): 0.43016, (2, 1): 0.38196, (3, 1): 0.31767, (4, 1): 0.27551}
