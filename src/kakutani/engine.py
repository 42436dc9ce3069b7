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
discrepancy scan walk it through tables of node ids laid out from the
staircase's row ends, down left spines and along rows of leaf children
with no push per leaf.

Lengths of exactly one are detected in log scale with a fixed slack, so
that e.g. alpha = 1/2 at t = log 2 yields two unit tiles and not four
halves.  In the commensurable case there is an exact integer-mode
twin, ``generate_patch_commensurable``, where the decision "length
greater than one" is an integer comparison.  It is the hub recursion of
a flower, "k steps to go -> k - c_i, one piece per loop", which
``count_hub_tiles`` counts and ``hub_patch`` walks; the fixed-scale
patches of ``cover.iterate_primitive`` are the same walk with labels.
"""
from __future__ import annotations

import math
from collections import Counter
from itertools import accumulate

from .errors import ParameterError, ResourceLimitError
from .geometry import Patch, term_sums
from .params import check_alpha, check_exponent_pair, solve_alpha

__all__ = [
    "DEFAULT_TILE_CAP",
    "LENGTH_ONE_SLACK",
    "SubdivisionTree",
    "generate_patch",
    "generate_patch_commensurable",
    "count_tiles",
    "count_tiles_commensurable",
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
        if t / -self.lb == math.inf:
            raise ResourceLimitError(
                f"row 0 of the staircase, t / -log(1 - alpha) = {t!r} / {-self.lb!r} "
                "columns, overflows a float"
            )
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

        The descent goes right along a row in runs.  Over internal left
        children it steps through the float sums of their widths, which
        the descent below needs, and counts their leaves with the
        hockey-stick identity (``_run_leaves``), O(rows) binomials a run.
        Over leaf children the run ends the descent, so only its length
        matters, and that comes from one logarithm (``_run_length``).
        Every right step adds at least one, so with a finite ``stop`` the
        count is returned as soon as a step takes it past ``stop``.
        """
        if x < 0.0:
            raise ParameterError("x must be nonnegative")
        if x > self.support * (1.0 + 1e-12):
            raise ParameterError("x lies beyond the patch support")
        ends = self.row_ends()
        rows = len(ends)
        t, la, lb = self.t, self.la, self.lb
        exp = math.exp
        count, a, b, left = 0, 0, 0, 0.0
        while a < rows and b <= ends[a]:
            base = t + (a + 1) * la  # the exponent of (a + 1, b) is base + b * lb
            right = left + exp(base + b * lb)
            if x < right:
                a += 1
                continue
            # a run of right steps along row a, the first one at column b
            first, end = b, ends[a]
            most = end - b + 1
            if stop < math.inf:  # the steps that must take the count past stop
                most = min(most, max(int(stop - count), 0) + 1)
            inner = min((ends[a + 1] if a + 1 < rows else -1) - b + 1, most)
            if inner > 0:
                steps, left = self._steps(base, b + 1, right, x, inner - 1)
                steps += 1
                b += steps
                run = self._run_leaves(a, first, steps)
                if count + run > stop:
                    # the step that takes the count past stop
                    lo, hi = 0, steps
                    while hi - lo > 1:
                        mid = (lo + hi) // 2
                        if count + self._run_leaves(a, first, mid) > stop:
                            hi = mid
                        else:
                            lo = mid
                    return count + self._run_leaves(a, first, hi)
                count += run
                if steps < inner:
                    a += 1  # the next sum passes x: down into (a + 1, b)
                    continue
            else:
                count += 1  # a leaf child
                if count > stop:
                    return count
                b += 1
                left = right
            # leaf children from column b on (none past the row's end): the
            # descent ends below them
            most = end - b + 1
            if stop < math.inf:
                most = min(most, max(int(stop - count), 0) + 1)
            count += self._run_length(base, b, left, x, most)
            return count if count > stop else count + 1
        return count + 1

    def _run_leaves(self, a: int, b: int, steps: int) -> int:
        """Leaves below the left children (a + 1, b) .. (a + 1, b + steps - 1)
        of a run of right steps along row a.

        Summing ``leaves(a + 1, c)`` over the run, each row's binomials
        comb(i + B - c + 1, i + 1) form a hockey stick, so a row below
        the run adds comb(i + B - b + 2, i + 2) - comb(i + B - c' + 1, i + 2),
        c' the run's last column or B, whichever is less.  One- and
        two-step runs are summed plainly.
        """
        if steps <= 2:
            return sum(self.leaves(a + 1, c) for c in range(b, b + steps))
        ends = self.row_ends()
        last = b + steps - 1
        total = steps
        for row in range(a + 1, len(ends)):
            end = ends[row]
            if end < b:
                break
            i = row - a - 1
            total += math.comb(i + end - b + 2, i + 2) - math.comb(i + end - min(last, end) + 1, i + 2)
        return total

    def _steps(self, base: float, b: int, left: float, x: float, most: int) -> tuple[int, float]:
        """Right steps from column b, at most ``most``, while the float sums
        of ``left`` and the widths exp(base + c * lb), c = b, b + 1, .., stay
        at or below x: their number and the sum after them, step by step.
        A width too small to move the sum ends the stepping, as every
        later width is smaller (within the rounding of its exponent)."""
        exp, lb = math.exp, self.lb
        for j in range(most):
            width = exp(base + (b + j) * lb)
            right = left + width
            if x < right:
                return j, left
            if right == left:
                slack = 2.0**-47 * (abs(base) + 2.0 * (b + most) * -lb + 1.0)
                if width * (1.0 + slack) < 0.5 * math.ulp(left):
                    return most, left
            left = right
        return most, left

    def _run_length(self, base: float, b: int, left: float, x: float, most: int) -> int:
        """The number of right steps of ``_steps(base, b, left, x, most)``,
        for a caller that needs no sum after them.

        The widths are geometric, so their real sum after j steps is
        left + w * expm1(j * lb) / expm1(lb), w the first width, and the
        j at which it reaches x is one logarithm.  The float sum stays in
        a band around it: each width is within 2 * eta + 64 * 2**-53 of
        its real value, eta bounding the rounding of its exponent (a
        libm ``exp`` and ``expm1`` within two ulps assumed), and while
        the sum stays at or below x each addition rounds by at most half
        an ulp of x.  A bisection from the logarithm's guess finds the
        last j whose band lies below x; it is the answer when the band of
        j + 1 lies above x.  Only where x falls inside a band does it
        step through the float sums.
        """
        done, left = self._steps(base, b, left, x, min(most, 8))
        if done < min(most, 8) or done == most:
            return done
        b += done
        most -= done
        lb = self.lb
        expm1 = math.expm1
        w = math.exp(base + b * lb)
        em1 = expm1(lb)
        u = 2.0**-53
        rho = 2.0 * u * (abs(base) + 2.0 * (b + most) * -lb) + 64.0 * u
        half = 0.5 * math.ulp(x)

        def band(j: int) -> tuple[float, float]:
            # the float sum after j steps lies within these bounds
            g = w * expm1(j * lb) / em1
            d = left + g
            e = rho * g + (j + 1) * half + 8.0 * u * (d + x) + j * 2.0**-1072
            return d - e, d + e

        q = (x - left) * em1 / w
        guess = math.log1p(q) / lb if q > -1.0 else math.inf
        j = int(guess) if guess < most else most
        lo, hi = 0, most + 1  # the band of lo lies below x, that of hi does not
        for probe in (j, j + 1):
            if 0 < probe <= most:
                if band(probe)[1] <= x:
                    lo = max(lo, probe)
                else:
                    hi = min(hi, probe)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if band(mid)[1] <= x:
                lo = mid
            else:
                hi = mid
        if lo == most or band(lo + 1)[0] > x:
            return done + lo
        return done + self._steps(base, b, left, x, most)[0]

    def walk_shape(self, top: int = 0, upto: float = math.inf) -> tuple[int, int]:
        """Rows and ids per row of a ``walk_table`` of the subtree at node
        (top, 0), for a walk that pushes a right child only when it
        starts at or before ``upto``, with (top + 1, 0) no longer.

        The rows run past the deepest child the walk reaches, with one
        spare row and column.  With ``upto`` finite, the rows below row
        top end at their leaves, and row top where its right steps first
        pass ``upto``: the run length of ``_run_length``.  A table of
        more than ``DEFAULT_TILE_CAP`` ids is refused with
        ResourceLimitError, before any row is built.
        """
        t, la, lb = self.t, self.la, self.lb
        depth = max(t + top * la, 0.0)  # a leaf at (top, 0) still gets its id 0
        rows = int(depth / -la) + 3
        if upto == math.inf:
            row = int(depth / -lb) + 3
        else:
            row = int(max(depth + la, 0.0) / -lb) + 3
            ends = self.row_ends()
            if top < len(ends):
                # past cap // rows - 1 steps the table is refused whatever the rest
                most = min(ends[top] + 1, max(DEFAULT_TILE_CAP // rows - 1, 0))
                reach = self._run_length(t + (top + 1) * la, 0, 0.0, upto, most)
                row = max(row, reach + 2)
        if rows * row > DEFAULT_TILE_CAP:
            raise ResourceLimitError(
                f"a walk table of {rows} x {row} ids is above the cap {DEFAULT_TILE_CAP}"
            )
        return rows, row

    def walk_table(self) -> tuple[int, list[int]]:
        """Node ids for a depth-first walk of the tree.

        Whether a node is a leaf, and how long its children are, depend
        on its exponent pair alone, so a walk looks them up by node id
        instead of working them out at every node.  Node (a, b) has id
        a * row + b, its left child id + row and its right child id + 1.
        Returns row and the kind of each id, read off the row ends a row
        at a time: 0 a leaf, 1 an internal node whose left child is a
        leaf, 2 one whose left child is internal.  A caller builds its
        other tables a row at a time, from the exponent pair
        (id // row, id % row).
        """
        rows, row = self.walk_shape()
        ends = self.row_ends()
        kind: list[int] = []
        for a in range(rows):
            internal = min(ends[a] + 1, row) if a < len(ends) else 0
            inner = min(ends[a + 1] + 1, row) if a + 1 < len(ends) else 0
            kind += [2] * inner + [1] * (internal - inner) + [0] * (row - internal)
        return row, kind


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


def check_hub_tile_cap(loops: tuple[int, ...], xi: float, ell: int, max_tiles: int) -> None:
    """Refuse a patch grown ell steps from the hub of a flower with these
    loops and inflation xi when it holds more than ``max_tiles`` tiles.

    The count H(ell) of ``count_hub_tiles`` is at least xi**(ell - c),
    c the longest loop: so is H(k) = 1 for k <= 0, and the recurrence
    H(k) = sum(H(k - c_i)) keeps it, as sum(xi**-c_i) = 1.  A patch
    that bound puts above the cap is refused at once, with no count of
    ell * log2(xi) bits to work out or print; any other is counted
    exactly.
    """
    exponent = (ell - max(loops)) * math.log(xi) * (1.0 - 1e-9)  # xi is a float
    if max_tiles < 1 or exponent > math.log(max_tiles):
        digits = max(int(exponent / math.log(10.0)), 0)
        raise ResourceLimitError(
            f"patch would contain at least 10**{digits} tiles, above the cap {max_tiles}"
        )
    check_tile_cap(count_hub_tiles(loops, ell), max_tiles)


def loop_labels(loops: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The labels of a flower's rule along each loop, from the hub back
    to it: entry i, s is the tile s steps along loop i, for s = 0 .. c_i.

    Label 1 is the hub, at both ends; loop i's c_i - 1 chain labels
    follow the hub's and those of the loops before it.
    """
    last = accumulate((c - 1 for c in loops), initial=1)  # the label before loop i's
    return [(1, *range(b + 1, b + c), 1) for b, c in zip(last, loops)]


def hub_patch(loops: tuple[int, ...], xi: float, ell: int, labelled: bool) -> Patch:
    """The patch grown ell steps from the hub of a flower with these
    loops, longest first, and inflation xi, anchored at zero.

    A hub with k steps to go splits into one piece per loop, each
    starting where the one before ends.  Piece i has length
    xi**(k - c_i) and is a hub again while k - c_i > 0, else a leaf;
    with ``labelled`` a leaf carries its label, that of the tile k steps
    along loop i in ``loop_labels``.
    Slot k * p + i, p the number of loops, is piece i of a hub with k
    steps to go, and the walk reads what a slot does from tables.  The
    loops are longest first, so a hub's leaf pieces come first and the
    steps along them push nothing.
    """
    p = len(loops)
    power = {e: xi**e for e in range(1 - loops[0], ell + 1)}
    slots = [(k, i, k - c) for k in range(ell + loops[-1] + 1) for i, c in enumerate(loops)]
    # 0 a leaf, 1 the last piece and a leaf, 2 a hub, 3 the last piece and a hub
    kind = [2 * (e > 0) + (i == p - 1) for _, i, e in slots]
    down = [e * p for _, _, e in slots]
    step = [((e, 1),) for _, _, e in slots]
    ids: list[int] = []
    paths: list[tuple] = []
    found, note = ids.append, paths.append
    stack = [(-1, ())]  # popping the sentinel ends the walk
    pop, push = stack.pop, stack.append
    s, path = len(slots) - 1, ()  # the root is the last piece of the hub c_p steps up
    while s >= 0:
        c = kind[s]
        if c == 0:
            found(s)
            note(path)
            path, s = step[s] + path, s + 1
        elif c == 2:
            push((s + 1, step[s] + path))
            s = down[s]
        elif c == 3:
            s = down[s]
        else:
            found(s)
            note(path)
            s, path = pop()
    # A right step prepends its power.  With two loops the powers fall
    # along a path, so the terms come out sorted; more loops can repeat
    # or interleave powers, and those are merged.
    if p > 2:
        paths = [sorted(Counter(e for e, _ in terms).items()) for terms in paths]
    size = [power.get(e) for _, _, e in slots]
    labels = None
    if labelled:
        along = loop_labels(loops)
        label = [along[i][k] if e <= 0 else 0 for k, i, e in slots]
        labels = [label[s] for s in ids]
    return Patch(term_sums(paths, power), [size[s] for s in ids], (0.0, xi**ell), labels)


def _leaf_walk(row: int, kind: list[int], step: list[float]) -> tuple[list[int], list[float]]:
    """Ids of the leaves of a walk table's tree, left to right, and the
    float sums of ``step[k]`` over the right steps of their paths, from
    the root down: down left spines, pushing right children, and along
    rows of leaf children with no push.  ``kind`` is
    ``SubdivisionTree.walk_table``'s."""
    ids: list[int] = []
    sums: list[float] = []
    found, note = ids.append, sums.append
    stack = [(-1, 0.0)]  # popping the sentinel ends the walk
    pop, push = stack.pop, stack.append
    k, val = 0, 0.0
    while k >= 0:
        c = kind[k]
        if c == 1:
            found(k + row)
            note(val)
            val, k = step[k] + val, k + 1
        elif c:
            push((k + 1, step[k] + val))
            k += row
        else:
            found(k)
            note(val)
            k, val = pop()
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
    row, kind = tree.walk_table()
    rows = len(kind) // row
    columns = beta_pow[:row]
    step = [p * q for p in alpha_pow[1 : rows + 1] for q in columns]
    ids, sums = _leaf_walk(row, kind, step)
    size = [s * q for s in [scale * p for p in alpha_pow[:rows]] for q in columns]
    return Patch(
        [anchor + scale * val for val in sums],
        [size[k] for k in ids],
        (anchor, anchor + scale),
    )


def generate_patch_commensurable(
    n: int, m: int, ell: int, max_tiles: int = DEFAULT_TILE_CAP
) -> Patch:
    """Exact integer-mode patch at time ell * g, anchored at zero.

    Tile lengths are xi**e for integers e; substitution applies exactly
    when e > 0.  A tile xi**e splits into xi**(e - n) and xi**(e - m),
    which is the hub of the flower with loops (n, m) splitting with e
    steps to go, so ``hub_patch`` builds the patch: the covering rule's
    patch (``cover.iterate_primitive``) without its labels.
    """
    if ell < 0:
        raise ParameterError("ell must be nonnegative")
    xi = solve_alpha(n, m) ** (-1.0 / n)
    check_hub_tile_cap((n, m), xi, ell, max_tiles)
    return hub_patch((n, m), xi, ell, False)
