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
discrepancy scan walk it through tables indexed by exponent pair, down
left spines and along rows of leaf children with no push per leaf.
``generate_patch`` sums float positions alone; the exact terms are
built by the same walk when ``patch.tiles`` first asks for them.

Lengths of exactly one are detected in log scale with a fixed slack, so
that e.g. alpha = 1/2 at t = log 2 yields two unit tiles and not four
halves.  In the commensurable case there is an exact integer-mode
twin, ``generate_patch_commensurable``, where the decision "length
greater than one" is an integer comparison.
"""
from __future__ import annotations

import math

from .errors import ParameterError, ResourceLimitError
from .geometry import (
    LengthExponent,
    Patch,
    PointSet,
    PositionVector,
    XiPower,
    XiSum,
    unit_sums,
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
    leaf once that length is at most one.  Leaf counts are sums of
    binomials over the staircase of internal pairs, one row at a time,
    so counting materializes and memoizes no node.
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
        self._ends: list[int] | None = None

    def is_leaf(self, a: int, b: int) -> bool:
        return self.t + a * self.la + b * self.lb <= LENGTH_ONE_SLACK

    def width(self, a: int, b: int) -> float:
        return math.exp(self.t + a * self.la + b * self.lb)

    def row_ends(self) -> list[int]:
        """Last internal column of each row: entry a is the largest b with
        (a, b) internal, for every row a whose node (a, 0) is internal.

        The leaf test is monotone in a and in b (float rounding is), so
        the internal pairs form a staircase: row a holds 0 .. B(a), and
        B(a) does not grow with a.  Each B(a) is guessed in closed form
        and settled by the leaf test itself, with a galloping search
        that ends even where the guess is far off.
        """
        if self._ends is None:
            t, la, lb = self.t, self.la, self.lb
            ends: list[int] = []
            a = 0
            while t + a * la > LENGTH_ONE_SLACK:
                base = t + a * la
                lo = hi = max(0, int((base - LENGTH_ONE_SLACK) / -lb))
                # gallop until lo is internal and hi a leaf, then bisect
                step = 1
                while base + hi * lb > LENGTH_ONE_SLACK:
                    lo, hi, step = hi, hi + step, 2 * step
                while lo > 0 and base + lo * lb <= LENGTH_ONE_SLACK:
                    lo, hi, step = max(0, lo - step), lo, 2 * step
                while hi - lo > 1:
                    mid = (lo + hi) // 2
                    if base + mid * lb > LENGTH_ONE_SLACK:
                        lo = mid
                    else:
                        hi = mid
                ends.append(lo)
                a += 1
            self._ends = ends
        return self._ends

    def leaves(self, a: int = 0, b: int = 0) -> int:
        """Number of leaf tiles below node (a, b), counted on the staircase.

        Every internal pair (a + i, b + j) of the subtree is reached by
        comb(i + j, i) paths, all through internal pairs, and a full
        binary tree has one more leaf than internal nodes.  Summing a
        row's paths by the hockey-stick identity gives
        1 + sum over rows i of comb(i + B(a + i) - b + 1, i + 1).
        """
        ends = self.row_ends()
        total = 1
        for row in range(a, len(ends)):
            end = ends[row]
            if end < b:
                break
            i = row - a
            total += math.comb(i + end - b + 1, i + 1)
        return total

    def internal_pairs(self) -> int:
        """Number of internal exponent pairs: the size of a per-pair table."""
        return sum(end + 1 for end in self.row_ends())

    def prefix_count(self, x: float, stop: float = math.inf) -> int:
        """Number of left endpoints in [0, x], by one descent of the tree.

        Every right step of the descent adds at least one, so with a
        finite ``stop`` the descent takes at most ``stop`` of them: it
        returns its count as soon as that passes ``stop``, or, along a row
        of leaf children, as soon as the steps still needed fit below x.
        """
        if x < 0.0:
            raise ParameterError("x must be nonnegative")
        if x > self.support * (1.0 + 1e-12):
            raise ParameterError("x lies beyond the patch support")
        ends = self.row_ends()
        count = 0
        a, b, left = 0, 0, 0.0
        while True:
            if self.is_leaf(a, b):
                count += 1 if left <= x else 0
                return count
            width = self.width(a + 1, b)
            if x < left + width:
                a += 1
                continue
            leaf_child = a + 1 >= len(ends) or ends[a + 1] < b
            count += 1 if leaf_child else self.leaves(a + 1, b)
            if count > stop:
                return count
            if leaf_child and stop < math.inf:
                # need more steps pass stop; each adds to left at most this
                # width and a rounding of 2**-53 of a sum that stays below x
                need = int(stop - count) + 1
                most = width * (1.0 + 2.0**-40) + x * 2.0**-50
                if need <= ends[a] - b and left + (need + 1) * most <= x:
                    return count + need
            left += width
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
    return count_hub_tiles((n, m), ell)


def count_hub_tiles(loops: tuple[int, ...], ell: int) -> int:
    """Tiles after ell steps from the hub of a flower with these loops.

    The piece a loop of c edges cuts off the hub stays one tile for c - 1
    steps and is a hub again after c, so the count H(ell) follows from
    H(k) = sum(H(k - c) for c in loops), H(k) = 1 for k <= 0, in
    O(len(loops) * ell) additions.  For the loops (n, m) this is the
    split xi**e -> xi**(e - n), xi**(e - m) of ``count_tiles_commensurable``.
    """
    top = max(loops)
    counts = [1] * (top + ell + 1)  # counts[top + k] is H(k)
    for k in range(top + 1, top + ell + 1):
        total = 0  # a plain loop: a generator here costs twice the additions
        for c in loops:
            total += counts[k - c]
        counts[k] = total
    return counts[-1]


def _leaf_walk(row: int, leaf: list[bool], step: list, start) -> tuple[list[int], list]:
    """Ids of the leaves of a walk table's tree, left to right, and the
    sums ``... + step[k] + start`` over the right steps of their paths:
    down left spines, pushing right children, and along rows of leaf
    children with no push.  ``+`` adds floats and joins tuples, so one
    walk sums positions or collects exact terms, the last step's first."""
    ids: list[int] = []
    sums: list = []
    stack = [(-1, start)]  # popping the sentinel ends the walk
    pop, push = stack.pop, stack.append
    k, val = 0, start
    while k >= 0:
        if leaf[k]:
            ids.append(k)
            sums.append(val)
            k, val = pop()
        elif leaf[k + row]:
            ids.append(k + row)
            sums.append(val)
            val, k = step[k] + val, k + 1
        else:
            push((k + 1, step[k] + val))
            k += row
    return ids, sums


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
    ids, sums = _leaf_walk(row, leaf, step, 0.0)
    size = [scale * alpha_pow[a] * beta_pow[b] for a, b in pairs]

    def exact() -> tuple[list[PositionVector], list[LengthExponent]]:
        # A right step adds the exact term of its left sibling; these
        # ascend along a path, so a path read backwards is sorted.
        _, terms = _leaf_walk(row, leaf, [(((a + 1, b), 1),) for a, b in pairs], ())
        exponents = {k: LengthExponent(*pairs[k]) for k in set(ids)}
        return (
            [PositionVector._from_sorted(path[::-1]) for path in terms],
            [exponents[k] for k in ids],
        )

    return Patch(
        [anchor + scale * val for val in sums],
        [size[k] for k in ids],
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
    # generate_patch's walk over the pairs (a, b) of exponent ell - a*n - b*m.
    # A right step at exponent e adds xi**(e - n); these powers strictly
    # decrease along a path, last step first, so the terms come out sorted.
    row = ell // m + 2
    exponent = [ell - a * n - b * m for a in range(ell // n + 2) for b in range(row)]
    step = [((e - n, 1),) for e in exponent]
    ids, found = _leaf_walk(row, [e <= 0 for e in exponent], step, ())
    exps = [exponent[k] for k in ids]

    def exact() -> tuple[list[XiSum], list[XiPower]]:
        exponents = {e: XiPower(-e) for e in range(1 - n, 1)}
        return (
            [XiSum._from_sorted(terms) for terms in found],
            [exponents[e] for e in exps],
        )

    return Patch(
        unit_sums(found, power),
        [power[e] for e in exps],
        (0.0, xi**ell),
        exact,
        info={"n": n, "m": m, "ell": ell, "alpha": alpha, "xi": xi},
    )


def delone_points(patch: Patch) -> PointSet:
    """Left endpoints of the tiles of a patch, with the patch support as window."""
    return PointSet(points=patch.positions(), window=patch.support)
