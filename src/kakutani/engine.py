"""The multiscale substitution semi-flow on interval patches.

``generate_patch(alpha, t)`` inflates the unit interval by e**t and then
substitutes every tile whose length is still strictly greater than one:
a tile of length L > 1 splits into a left piece alpha*L and a right
piece (1-alpha)*L.  Tiles of length exactly one are kept, which makes
the family of patches a semi-flow in t.  Tiles are in bijection with
the directed walks of length t on a one-vertex graph with two loops of
lengths log(1/alpha) and log(1/(1-alpha)).  ``SubdivisionTree`` is the
tree of these splits: ``count_tiles`` and the discrepancy module count on it
without materializing anything, and ``generate_patch`` and the direct
discrepancy scan walk it through tables indexed by exponent pair.

Lengths of exactly one are detected in log scale with a fixed slack, so
that e.g. alpha = 1/2 at t = log 2 yields two unit tiles and not four
halves.  In the commensurable case there is an exact integer-mode
twin, ``generate_patch_commensurable``, where the decision "length
greater than one" is an integer comparison.
"""
from __future__ import annotations

import math
from typing import NamedTuple

from .errors import ParameterError, ResourceLimitError
from .geometry import (
    LengthExponent,
    Patch,
    PointSet,
    PositionVector,
    XiPower,
    XiSum,
    left_sum,
)
from .params import check_alpha, check_exponent_pair, solve_alpha

__all__ = [
    "DEFAULT_TILE_CAP",
    "LENGTH_ONE_SLACK",
    "SubdivisionTree",
    "generate_patch",
    "generate_patch_commensurable",
    "count_tiles",
    "count_tiles_commensurable",
    "delone_points",
    "CFDistance",
    "chabauty_fell",
    "chabauty_fell_distance",
]

#: Hard ceiling on materialized tiles; counting works far beyond it.
DEFAULT_TILE_CAP = 10**8

#: Log-lengths within this slack of zero count as "exactly one".
LENGTH_ONE_SLACK = 1e-12


def check_tile_cap(count: int, max_tiles: int) -> None:
    """Refuse to materialize a patch of more than ``max_tiles`` tiles."""
    if count > max_tiles:
        raise ResourceLimitError(
            f"patch would contain {count} tiles, above the cap {max_tiles}"
        )


class SubdivisionTree:
    """The alpha-Kakutani splitting tree of depth t, anchored at zero.

    Node (a, b) is a tile of length e**t * alpha**a * (1-alpha)**b and a
    leaf once that length is at most one.  Leaf counts are memoized per
    node, so counting materializes nothing.
    """

    def __init__(self, alpha: float, t: float):
        check_alpha(alpha)
        if not math.isfinite(t):
            raise ParameterError(f"t must be finite, got {t!r}")
        if t < 0.0:
            raise ParameterError(f"t must be nonnegative, got {t!r}")
        try:
            self.support = math.exp(t)
        except OverflowError:
            raise ParameterError(f"e**t overflows a float at t = {t!r}") from None
        self.t = t
        self.la = math.log(alpha)
        self.lb = math.log1p(-alpha)
        self._leaves: dict[tuple[int, int], int] = {}

    def is_leaf(self, a: int, b: int) -> bool:
        return self.t + a * self.la + b * self.lb <= LENGTH_ONE_SLACK

    def width(self, a: int, b: int) -> float:
        return math.exp(self.t + a * self.la + b * self.lb)

    def leaves(self, a: int = 0, b: int = 0) -> int:
        """Number of leaf tiles below node (a, b).

        Iterative post-order over N(a, b) = N(a+1, b) + N(a, b+1), with
        the leaf test inlined on locals: this is the hot loop of
        counting.
        """
        memo = self._leaves
        t, la, lb = self.t, self.la, self.lb
        root = (a, b)
        stack = [root]
        while stack:
            a, b = stack[-1]
            if (a, b) in memo:
                stack.pop()
                continue
            if t + a * la + b * lb <= LENGTH_ONE_SLACK:
                memo[(a, b)] = 1
                stack.pop()
                continue
            left, right = (a + 1, b), (a, b + 1)
            ready = True
            for child in (left, right):
                if child not in memo:
                    stack.append(child)
                    ready = False
            if ready:
                memo[(a, b)] = memo[left] + memo[right]
                stack.pop()
        return memo[root]

    def prefix_count(self, x: float) -> int:
        """Number of left endpoints in [0, x], by one descent of the tree."""
        if x < 0.0:
            raise ParameterError("x must be nonnegative")
        if x > self.support * (1.0 + 1e-12):
            raise ParameterError("x lies beyond the patch support")
        count = 0
        a, b, left = 0, 0, 0.0
        while True:
            if self.is_leaf(a, b):
                count += 1 if left <= x else 0
                return count
            boundary = left + self.width(a + 1, b)
            if x < boundary:
                a += 1
            else:
                count += self.leaves(a + 1, b)
                left = boundary
                b += 1

    def walk_table(
        self, top: int = 0, upto: float = math.inf
    ) -> tuple[int, list[tuple[int, int]], list[bool]]:
        """Node ids for a depth-first walk of the subtree at node (top, 0).

        Whether a node is a leaf, and how long its children are, depend
        on its exponent pair alone, so a walk looks them up by node id
        instead of working them out at every node.  Node (a, b) has id
        (a - top) * row + b, its left child id + row and its right child
        id + 1.  Returns row, the pair of each id and the leaf flag of
        each id; a caller builds its other per-pair tables from the pairs.

        A walk that pushes a right child only when it starts at or before
        ``upto``, with (top + 1, 0) no longer than ``upto``, gets a table
        sized to the nodes it reaches.  A table of more than
        ``DEFAULT_TILE_CAP`` ids is refused before it is built.
        """
        t, la, lb = self.t, self.la, self.lb
        # past the deepest child a walk reaches, with one spare row and
        # column; a leaf at (top, 0) still gets its id 0
        depth = max(t + top * la, 0.0)
        rows = int(depth / -la) + 3
        if upto == math.inf:
            row = int(depth / -lb) + 3
        else:
            # Below row top every node starts at or before upto, so those
            # rows end at their leaves; row top ends where its right child
            # first starts past upto, found with the walk's own sums.
            row = int(max(depth + la, 0.0) / -lb) + 3
            b, left = 0, 0.0
            while b < DEFAULT_TILE_CAP and not self.is_leaf(top, b):
                left += self.width(top + 1, b)
                if left > upto:
                    break
                b += 1
            row = max(row, b + 2)
        if rows * row > DEFAULT_TILE_CAP:
            raise ResourceLimitError(
                f"a walk table of {rows} x {row} ids is above the cap {DEFAULT_TILE_CAP}"
            )
        pairs = [(a, b) for a in range(top, top + rows) for b in range(row)]
        leaf = [t + a * la + b * lb <= LENGTH_ONE_SLACK for a, b in pairs]
        return row, pairs, leaf


def count_tiles(alpha: float, t: float) -> int:
    """Number of tiles of the patch at time t; exact integer arithmetic."""
    return SubdivisionTree(alpha, t).leaves()


def count_tiles_commensurable(n: int, m: int, ell: int) -> int:
    """Tile count after ell substitution steps, by the walk recurrence.

    A tile of length xi**e with e > 0 splits into lengths xi**(e-n) and
    xi**(e-m); tiles with e <= 0 are leaves.
    """
    # Not SubdivisionTree: this is the exact integer xi-exponent tree.
    check_exponent_pair(n, m)
    if ell < 0:
        raise ParameterError("ell must be nonnegative")
    counts: dict[int, int] = {}
    for e in range(ell + 1):
        if e <= 0:
            counts[e] = 1
        else:
            counts[e] = counts.get(e - n, 1) + counts.get(e - m, 1)
    return counts[ell]


def generate_patch(
    alpha: float,
    t: float,
    origin_offset: float = 0.5,
    max_tiles: int = DEFAULT_TILE_CAP,
) -> Patch:
    """Materialize the patch at time t, anchored so that the inflated
    interval spans ``[-origin_offset * e**t, (1 - origin_offset) * e**t]``.
    """
    tree = SubdivisionTree(alpha, t)
    if not (0.0 <= origin_offset <= 1.0):
        raise ParameterError("origin_offset must lie between 0 and 1")
    check_tile_cap(tree.leaves(), max_tiles)
    scale = tree.support
    anchor = -origin_offset * scale
    beta = 1.0 - alpha
    # every power a table row, its left child or a column reaches
    alpha_pow = [alpha**k for k in range(int(t / -tree.la) + 4)]
    beta_pow = [beta**k for k in range(int(t / -tree.lb) + 4)]
    row, pairs, leaf = tree.walk_table()
    step = [alpha_pow[a + 1] * beta_pow[b] for a, b in pairs]
    # the exact term a right child adds: its left sibling's exponent pair
    term = [((a + 1, b), 1) for a, b in pairs]
    # Depth-first, right child pushed first so leaves pop left to right.
    # A right child adds the length of its left sibling to the position;
    # along a path these terms ascend in (a, b), so the exact terms come
    # out sorted and the running float is their left-to-right sum.
    leaves: list[tuple[int, tuple, float]] = []
    stack: list[tuple[int, tuple, float]] = [(0, (), 0.0)]
    pop, push, keep = stack.pop, stack.append, leaves.append
    while stack:
        node = pop()
        k, terms, val = node
        if leaf[k]:
            keep(node)
        else:
            push((k + 1, terms + (term[k],), val + step[k]))
            push((k + row, terms, val))
    size = [scale * alpha_pow[a] * beta_pow[b] for a, b in pairs]

    def exact() -> tuple[list[PositionVector], list[LengthExponent]]:
        exponents = {k: LengthExponent(*pairs[k]) for k in {k for k, _, _ in leaves}}
        return (
            [PositionVector._from_sorted(terms) for _, terms, _ in leaves],
            [exponents[k] for k, _, _ in leaves],
        )

    return Patch(
        [anchor + scale * val for _, _, val in leaves],
        [size[k] for k, _, _ in leaves],
        (anchor, anchor + scale),
        exact,
        info={"alpha": alpha, "t": t, "origin_offset": origin_offset},
    )


def generate_patch_commensurable(
    n: int, m: int, ell: int, max_tiles: int = DEFAULT_TILE_CAP
) -> Patch:
    """Exact integer-mode patch at time ell * g, anchored at zero.

    Tile lengths are xi**e for integers e; substitution applies exactly
    when e > 0.  Positions are exact sums of powers of xi, so the result
    can be compared tile-for-tile against a fixed-scale construction
    without tolerances.
    """
    if ell < 0:
        raise ParameterError("ell must be nonnegative")
    check_tile_cap(count_tiles_commensurable(n, m, ell), max_tiles)
    alpha = solve_alpha(n, m)
    xi = alpha ** (-1.0 / n)
    # xi**p for every power a split or a leaf can reach: 1 - n <= p <= ell
    power = {p: xi**p for p in range(1 - n, ell + 1)}
    # Depth-first as in generate_patch.  The right child at exponent e
    # adds xi**(e - n); along a path these powers strictly decrease, so
    # prepending keeps the exact terms ascending.
    leaves: list[tuple[int, tuple]] = []
    stack: list[tuple[int, tuple]] = [(ell, ())]
    pop, push, keep = stack.pop, stack.append, leaves.append
    while stack:
        node = pop()
        e, terms = node
        if e > 0:
            p = e - n
            push((e - m, ((p, 1),) + terms))
            push((p, terms))
        else:
            keep(node)

    def exact() -> tuple[list[XiSum], list[XiPower]]:
        exponents = {e: XiPower(-e) for e in range(1 - n, 1)}
        return (
            [XiSum._from_sorted(terms) for _, terms in leaves],
            [exponents[e] for e, _ in leaves],
        )

    return Patch(
        [left_sum([power[p] for p, _ in terms]) for _, terms in leaves],
        [power[e] for e, _ in leaves],
        (0.0, xi**ell),
        exact,
        info={"n": n, "m": m, "ell": ell, "alpha": alpha, "xi": xi},
    )


def delone_points(patch: Patch) -> PointSet:
    """Left endpoints of the tiles of a patch, with the patch support as window."""
    return PointSet(points=patch.positions(), window=patch.support)


class CFDistance(NamedTuple):
    value: float
    certified: bool


def _coverage_threshold(points: PointSet, other: PointSet) -> float:
    """Smallest eps at which every window-visible point of ``points`` is
    eps-covered by ``other``: the max over points of min(gap, 1/|x|)."""
    worst = 0.0
    for x in points.points:
        gap = other.nearest_distance(x)
        if gap > 0.0:
            reach = math.inf if x == 0.0 else 1.0 / abs(x)
            worst = max(worst, min(gap, reach))
    return worst


def chabauty_fell(a: PointSet, b: PointSet) -> CFDistance:
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


def chabauty_fell_distance(a: PointSet, b: PointSet) -> float:
    return chabauty_fell(a, b).value
