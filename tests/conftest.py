"""Shared fixtures and independent oracles.

The oracles deliberately avoid the package's own algorithms: plain
bisection for real roots, the quadratic formula, brute-force recursion
for tile counts, and permutation-expansion determinants for small
characteristic polynomials.  Agreement between package and oracle is
then evidence, not circularity.

The package keeps only what its command line, scripts and README use,
so code that only tests call lives here too: Faddeev-LeVerrier,
polynomial products and values, exact matrix products, powers and
primitivity, tile counts (per label, from the image map), and the
Chabauty-Fell distance on point sets.
"""
import bisect
import cmath
import math
import random
from fractions import Fraction
from typing import NamedTuple

import pytest

from kakutani.cover import SubstitutionMatrix
from kakutani.errors import ParameterError
from kakutani.polynomials import IntPolynomial


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


def memo_leaves(alpha, t, a=0, b=0, slack=1e-12, memo=None):
    """Leaves below node (a, b) of the depth-t tree by the per-node memo
    N(a, b) = N(a + 1, b) + N(a, b + 1), with the leaf test
    ``t + a*la + b*lb <= slack`` evaluated at every pair."""
    la, lb = math.log(alpha), math.log1p(-alpha)
    memo = {} if memo is None else memo
    stack = [(a, b)]
    while stack:
        key = stack[-1]
        if key in memo:
            stack.pop()
        elif t + key[0] * la + key[1] * lb <= slack:
            memo[key] = 1
            stack.pop()
        else:
            left, right = (key[0] + 1, key[1]), (key[0], key[1] + 1)
            missing = [child for child in (left, right) if child not in memo]
            if missing:
                stack.extend(missing)
            else:
                memo[key] = memo[left] + memo[right]
                stack.pop()
    return memo[(a, b)]


def prefix_count_per_node(alpha, t, x, stop=math.inf, slack=1e-12):
    """The descent of ``SubdivisionTree.prefix_count`` one right step at
    a time: each step adds its left child's leaves from ``memo_leaves``,
    and the count is returned as soon as it passes ``stop``."""
    la, lb = math.log(alpha), math.log1p(-alpha)
    memo = {}
    count, a, b, left = 0, 0, 0, 0.0
    while True:
        if t + a * la + b * lb <= slack:
            return count + (1 if left <= x else 0)
        boundary = left + math.exp(t + (a + 1) * la + b * lb)
        if x < boundary:
            a += 1
            continue
        count += memo_leaves(alpha, t, a + 1, b, slack, memo)
        if count > stop:
            return count
        left, b = boundary, b + 1


class TwoPassProfile:
    """Exact extrema of count([0, x]) - density * x, the two-pass way:
    per-pair memos of the sup and the inf of the deviation over each
    subtree's span, with the leaf counts read from ``memo_leaves``.  The
    same float expressions as ``discrepancy._DeviationProfile``."""

    def __init__(self, alpha, t, density, slack=1e-12):
        self.t, self.la, self.lb = t, math.log(alpha), math.log1p(-alpha)
        self.alpha, self.density, self.slack = alpha, density, slack
        self.support = math.exp(t)
        self._hi, self._lo, self._counts = {}, {}, {}

    def is_leaf(self, a, b):
        return self.t + a * self.la + b * self.lb <= self.slack

    def width(self, a, b):
        return math.exp(self.t + a * self.la + b * self.lb)

    def leaves(self, a, b):
        return memo_leaves(self.alpha, self.t, a, b, self.slack, self._counts)

    def tables(self, a, b):
        hi, lo, d = self._hi, self._lo, self.density
        stack = [(a, b)]
        while stack:
            key = stack[-1]
            if key in hi:
                stack.pop()
                continue
            if self.is_leaf(*key):
                hi[key] = 1.0
                lo[key] = 1.0 - d * self.width(*key)
                stack.pop()
                continue
            left, right = (key[0] + 1, key[1]), (key[0], key[1] + 1)
            missing = [child for child in (left, right) if child not in hi]
            if missing:
                stack.extend(missing)
                continue
            step = self.leaves(*left) - d * self.width(*left)
            hi[key] = max(hi[left], step + hi[right])
            lo[key] = min(lo[left], step + lo[right])
            stack.pop()
        return hi[(a, b)], lo[(a, b)]

    def max_abs_upto(self, x):
        d = self.density
        best_hi, best_lo = -math.inf, math.inf
        a, b, left, acc = 0, 0, 0.0, 0.0
        while True:
            if x >= left + self.width(a, b):
                hi, lo = self.tables(a, b)
                best_hi, best_lo = max(best_hi, acc + hi), min(best_lo, acc + lo)
                break
            if self.is_leaf(a, b):
                if left <= x:
                    best_hi = max(best_hi, acc + 1.0)
                    best_lo = min(best_lo, acc + 1.0 - d * (x - left))
                break
            wl = self.width(a + 1, b)
            if x < left + wl:
                a += 1
                continue
            hi, lo = self.tables(a + 1, b)
            best_hi, best_lo = max(best_hi, acc + hi), min(best_lo, acc + lo)
            acc += self.leaves(a + 1, b) - d * wl
            left += wl
            b += 1
        return max(best_hi, -best_lo, 0.0)


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


def walk_cases(seed, count, max_tiles=3000):
    """Seeded (alpha, t) with at most ``max_tiles`` leaves: alpha
    log-uniform in [1e-6, 1/2], and every other t on a point
    i*|log alpha| + j*|log(1-alpha)| of the lattice or within 2e-12 of
    one, where the leaf test sits on its slack."""
    rng = random.Random(seed)
    cases = []
    for k in range(count):
        alpha = 10.0 ** rng.uniform(-6.0, math.log10(0.5))
        la, lb = math.log(alpha), math.log1p(-alpha)
        # about 10**4 pairs in the memo that counts the leaves
        budget = min(1e4 * -lb, math.sqrt(1e4 * la * lb), 12.0)
        i, j = rng.randint(0, int(budget / -la)), rng.randint(0, int(budget / -lb))
        t = i * -la + j * -lb if k % 2 else rng.uniform(0.0, budget)
        while memo_leaves(alpha, t) > max_tiles:
            i, j = i // 2, j // 2
            t = i * -la + j * -lb if k % 2 else t / 2.0
        if k % 2:
            t = max(0.0, t + rng.choice([0.0, 1e-12, -1e-12, 2e-12, -2e-12]))
        cases.append((alpha, t))
    return cases


def patch_per_node(alpha, t, origin_offset=0.5, slack=1e-12):
    """The leaves of ``engine.generate_patch`` by the walk its row-run
    walk replaced: depth first, both children of every internal node
    pushed, right first, with the leaf test, the powers and the exact
    term of each right child worked out at every node, in the package's
    float expressions.  Returns the exponent pairs, float positions,
    float lengths and exact position terms of the leaves, in order."""
    la, lb = math.log(alpha), math.log1p(-alpha)
    beta, scale = 1.0 - alpha, math.exp(t)
    anchor = -origin_offset * scale
    pairs, positions, lengths, terms = [], [], [], []
    stack = [(0, 0, (), 0.0)]
    while stack:
        a, b, path, val = stack.pop()
        if t + a * la + b * lb <= slack:
            pairs.append((a, b))
            positions.append(anchor + scale * val)
            lengths.append(scale * alpha**a * beta**b)
            terms.append(path)
        else:
            step = alpha ** (a + 1) * beta**b
            stack.append((a, b + 1, path + (((a + 1, b), 1),), val + step))
            stack.append((a + 1, b, path, val))
    return pairs, positions, lengths, terms


def xi_patch_per_node(n, m, ell):
    """Leaf exponents and exact position terms, in order, of the tree in
    which xi**e with e > 0 splits into xi**(e - n), xi**(e - m) and the
    right child adds xi**(e - n): the walk of both children per node."""
    exponents, terms = [], []
    stack = [(ell, ())]
    while stack:
        e, path = stack.pop()
        if e > 0:
            stack.append((e - m, ((e - n, 1),) + path))
            stack.append((e - n, path))
        else:
            exponents.append(e)
            terms.append(path)
    return exponents, terms


def rule_patch_per_node(rule, ell):
    """Labels and exact position terms, as sorted (power, coefficient)
    pairs, of the leaves of a fixed-scale rule's label tree after ell
    steps from the hub, by recursion.  A child starts where its elder
    siblings end, and a child made with ``left`` steps to go has length
    xi**(left - 1 - e), e its label's length exponent, so each elder
    sibling adds that power."""
    images, exponents = rule.image_map, rule.length_exponents
    labels, terms = [], []

    def walk(label, left, path):
        if left == 0:
            merged = {}
            for p, c in path:
                merged[p] = merged.get(p, 0) + c
            labels.append(label)
            terms.append(tuple(sorted(merged.items())))
            return
        offset = []
        for child in images[label - 1]:
            walk(child, left - 1, path + offset)
            offset = offset + [(left - 1 - exponents[child - 1], 1)]

    walk(1, ell, [])
    return labels, terms


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


def char_poly_from_rows(rows):
    """Characteristic polynomial det(xI - M) of an integer matrix.

    Uses the Faddeev-LeVerrier recurrence; every division it performs is
    by construction exact over the integers, and this is asserted.
    """
    k = len(rows)
    if k == 0 or any(len(r) != k for r in rows):
        raise ParameterError("matrix must be square and nonempty")
    m = [[int(c) for c in r] for r in rows]
    # descending coefficients of the monic characteristic polynomial
    coeffs = [1]
    work = [row[:] for row in m]
    for step in range(1, k + 1):
        trace = sum(work[i][i] for i in range(k))
        assert trace % step == 0, "Faddeev-LeVerrier trace must divide evenly"
        c = -trace // step
        coeffs.append(c)
        if step == k:
            break
        for i in range(k):
            work[i][i] += c
        work = [
            [sum(m[i][l] * work[l][j] for l in range(k)) for j in range(k)]
            for i in range(k)
        ]
    return IntPolynomial(tuple(reversed(coeffs)))


def multiply(a, b):
    """The product of two ``IntPolynomial`` values, by the schoolbook
    convolution of their coefficients."""
    if a.is_zero or b.is_zero:
        return IntPolynomial.zero()
    out = [0] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] += x * y
    return IntPolynomial(out)


def horner(poly, z):
    """The value of an ``IntPolynomial`` at z, by Horner's rule."""
    acc = 0
    for c in reversed(poly.coeffs):
        acc = acc * z + c
    return acc


def matmul(a, b):
    """Exact product of two ``SubstitutionMatrix`` values."""
    k = a.size
    x, y = a.entries, b.entries
    return SubstitutionMatrix(
        tuple(tuple(sum(x[i][l] * y[l][j] for l in range(k)) for j in range(k)) for i in range(k))
    )


def is_primitive(matrix):
    """Some power of the matrix has all entries positive; by Wielandt
    a primitive K x K matrix has one by the power (K - 1)**2 + 1, and
    powers up to K**2 are checked."""
    acc = matrix
    for _ in range(matrix.size**2):
        if all(c > 0 for row in acc.entries for c in row):
            return True
        acc = matmul(acc, matrix)
    return False


def matrix_power(matrix, ell):
    """Exact power of a ``SubstitutionMatrix`` by repeated squaring."""
    if ell < 0:
        raise ParameterError("matrix power must be nonnegative")
    k = matrix.size
    result = SubstitutionMatrix(
        tuple(tuple(1 if i == j else 0 for j in range(k)) for i in range(k))
    )
    base = matrix
    while ell:
        if ell & 1:
            result = matmul(result, base)
        base = matmul(base, base)
        ell >>= 1
    return result


def tile_counts(matrix, ell):
    """Exact prototile counts after ell steps applied to the hub tile."""
    return tuple(row[0] for row in matrix_power(matrix, ell).entries)


def rule_count(rule, ell):
    """Number of leaves of the rule's label tree after ell steps, by
    per-label counts read off the image map: O(size * ell) additions."""
    images = rule.image_map
    counts = [1] * rule.size
    for _ in range(ell):
        counts = [sum(counts[c - 1] for c in image) for image in images]
    return counts[0]


def nearest_distance(points, x):
    """Distance from x to the nearest point of a ``PointSet``, inf for an
    empty set."""
    pts = points.points
    if not pts:
        return math.inf
    i = bisect.bisect_left(pts, x)
    best = math.inf
    if i < len(pts):
        best = pts[i] - x
    if i > 0:
        best = min(best, x - pts[i - 1])
    return best


class CFDistance(NamedTuple):
    value: float
    certified: bool


def _coverage_threshold(points, other):
    """Smallest eps at which every window-visible point of ``points`` is
    eps-covered by ``other``: the max over points of min(gap, 1/|x|)."""
    worst = 0.0
    for x in points.points:
        gap = nearest_distance(other, x)
        if gap > 0.0:
            reach = math.inf if x == 0.0 else 1.0 / abs(x)
            worst = max(worst, min(gap, reach))
    return worst


def chabauty_fell(a, b):
    """Chabauty-Fell distance between two finite point sets.

    The distance is the least eps in (0, 1) such that each set,
    restricted to (-1/eps, 1/eps), lies within eps of the other; 1 if no
    such eps exists.  For finite sets the feasibility of eps changes
    only at finitely many per-point thresholds min(gap, 1/|x|), and the
    distance is their maximum.

    The result is certified only when both observation windows contain
    (-1/eps, 1/eps) for the returned eps; otherwise it is a lower bound
    for the distance between the underlying unbounded sets.
    """
    value = max(_coverage_threshold(a, b), _coverage_threshold(b, a))
    value = min(value, 1.0)
    if value > 0.0:
        reach = 1.0 / value
        certified = all(
            w[0] <= -reach and w[1] >= reach for w in (a.window, b.window)
        )
    else:
        certified = False
    return CFDistance(value, certified)


def chabauty_fell_distance(a, b):
    return chabauty_fell(a, b).value


def coprime_pairs(max_n, min_n=2):
    """All (n, m) with min_n <= n <= max_n, 1 <= m < n, gcd = 1."""
    return [
        (n, m)
        for n in range(min_n, max_n + 1)
        for m in range(1, n)
        if math.gcd(n, m) == 1
    ]


def coprime_triples(max_n):
    """Loop counts (n, m, k) of every three-loop rule with n <= max_n:
    n >= m >= k >= 1, gcd = 1, not all equal."""
    return [
        (n, m, k)
        for n in range(2, max_n + 1)
        for m in range(1, n + 1)
        for k in range(1, m + 1)
        if math.gcd(math.gcd(n, m), k) == 1 and not n == m == k
    ]


@pytest.fixture(scope="session")
def pv_pairs():
    return ((2, 1), (3, 2), (3, 1), (4, 1))


@pytest.fixture(scope="session")
def printed_alphas():
    """Five-digit split values as printed for the four Pisot ratios."""
    return {(3, 2): 0.43016, (2, 1): 0.38196, (3, 1): 0.31767, (4, 1): 0.27551}
