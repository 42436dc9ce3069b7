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
discrepancy scan walk it through one table of signed left-child widths
laid out from the staircase's row ends (``SubdivisionTree.walk_steps``),
down left spines and along rows of leaf children with no push per leaf.

Lengths of exactly one are detected in log scale with a fixed slack, so
that e.g. alpha = 1/2 at t = log 2 yields two unit tiles and not four
halves.  In the commensurable case there is an exact integer-mode
twin, ``generate_patch_commensurable``, where the decision "length
greater than one" is an integer comparison.  It is the hub recursion of
a flower, "k steps to go -> k - c_i, one piece per loop", which
``count_hub_tiles`` counts and ``hub_patch`` builds, once for each
number of steps to go; the fixed-scale patches of
``cover.iterate_primitive`` are the same recursion with labels.
"""
from __future__ import annotations

import math
from collections import Counter
from collections.abc import Callable
from itertools import accumulate

from .errors import ParameterError, ResourceLimitError
from .geometry import Patch, term_sums
from .params import Commensurable, check_alpha, solve_alpha

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

#: Memory a materialized patch may take, with its rendering.
MEMORY_BUDGET = 2 << 30

#: Bytes per tile of a patch and its rendering: a patch rendered as JSON,
#: the largest rendering, peaked at 1,060-1,110 B a tile in RSS (CPython
#: 3.11, 4e5 tiles, multiscale and labelled).
TILE_BYTES = 1200

#: Log-lengths within this slack of zero count as "exactly one".
LENGTH_ONE_SLACK = 1e-12


def check_steps(ell: int) -> None:
    """Refuse a step count that is not a nonnegative integer."""
    if not isinstance(ell, int):
        raise ParameterError(f"ell must be an integer, got {ell!r}")
    if ell < 0:
        raise ParameterError("ell must be nonnegative")


def check_tile_cap(count: int, max_tiles: int, tile_bytes: int = TILE_BYTES) -> None:
    """Refuse to materialize a patch of more than ``max_tiles`` tiles, or
    of more than ``MEMORY_BUDGET`` bytes at ``tile_bytes`` a tile."""
    if count > max_tiles:
        raise ResourceLimitError(
            f"patch would contain {count} tiles, above the cap {max_tiles}"
        )
    if count * tile_bytes > MEMORY_BUDGET:
        raise ResourceLimitError(_over_budget(f"{count}", tile_bytes))


def _over_budget(count: str, tile_bytes: int) -> str:
    return (
        f"patch would contain {count} tiles, above the memory budget of "
        f"{MEMORY_BUDGET / 2**30:g} GiB at {tile_bytes} bytes a tile"
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
        """Rows and ids per row of a ``walk_steps`` table of the subtree at
        node (top, 0), for a walk that pushes a right child only when it
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

    def walk_steps(
        self, rows: int, row: int, top: int, widths: Callable[[int, int], list[float]]
    ) -> list[float]:
        """The table a depth-first walk of the subtree at node (top, 0)
        reads, in the shape (rows, row) that ``walk_shape`` gives it.

        Node (a, b) has id (a - top) * row + b, its left child id + row
        and its right child id + 1.  Its entry is its left child's width
        ``widths(a, n)[b]``, negated where that child is internal, and 0.0
        at a leaf: a walk goes down while the entry is negative, along the
        row while it is positive, and pops at 0.0.  The table is laid out
        a row at a time from the row ends, and ends after the first row
        with no internal left child, as a walk reads a row only below one.
        """
        ends = self.row_ends()
        steps: list[float] = []
        for a in range(top, top + rows):
            internal = min(ends[a] + 1, row) if a < len(ends) else 0
            inner = min(ends[a + 1] + 1, row) if a + 1 < len(ends) else 0
            left = widths(a, internal)
            steps += [-w for w in left[:inner]] + left[inner:] + [0.0] * (row - internal)
            if not inner:
                break
        return steps


def count_tiles(alpha: float, t: float) -> int:
    """Number of tiles of the patch at time t; exact integer arithmetic."""
    return SubdivisionTree(alpha, t).leaves()


def count_tiles_commensurable(n: int, m: int, ell: int) -> int:
    """Tile count after ell substitution steps, by the walk recurrence.

    A tile of length xi**e with e > 0 splits into lengths xi**(e-n) and
    xi**(e-m); tiles with e <= 0 are leaves.
    """
    # Not SubdivisionTree: this is the exact integer xi-exponent tree.
    Commensurable(n, m)  # validates the pair
    check_steps(ell)
    return count_hub_tiles((n, m), ell)[-1]


def count_hub_tiles(loops: tuple[int, ...], ell: int) -> list[int]:
    """Tiles after 0 .. ell steps from the hub of a flower with these loops.

    The piece a loop of c edges cuts off the hub stays one tile for c - 1
    steps and is a hub again after c, so the count H(k) follows from
    H(k) = sum(H(k - c) for c in loops), H(k) = 1 for k <= 0, in
    O(len(loops) * ell) additions.  For the loops (n, m) this is the
    split xi**e -> xi**(e - n), xi**(e - m) of ``count_tiles_commensurable``.
    """
    counts = [1]  # counts[k] is H(k)
    for k in range(1, ell + 1):
        total = 0  # a plain loop: a generator here costs twice the additions
        for c in loops:
            total += counts[k - c] if k > c else 1
        counts.append(total)
    return counts


def check_hub_tile_cap(
    loops: tuple[int, ...], xi: float, ell: int, max_tiles: int, tile_bytes: int = TILE_BYTES
) -> None:
    """Refuse a patch grown ell steps from the hub of a flower with these
    loops and inflation xi when ``check_tile_cap`` refuses its tiles, or
    when building it takes more than ``DEFAULT_TILE_CAP`` leaves.

    The count H(ell) of ``count_hub_tiles`` is at least xi**(ell - c),
    c the longest loop: so is H(k) = 1 for k <= 0, and the recurrence
    H(k) = sum(H(k - c_i)) keeps it, as sum(xi**-c_i) = 1.  A patch
    that bound puts above the cap or the memory budget is refused at
    once, with no count of ell * log2(xi) bits to work out or print; any
    other is counted exactly.
    """
    exponent = (ell - max(loops)) * math.log(xi) * (1.0 - 1e-9)  # xi is a float
    least = f"at least 10**{max(int(exponent / math.log(10.0)), 0)}"
    if max_tiles < 1 or exponent > math.log(max_tiles):
        raise ResourceLimitError(f"patch would contain {least} tiles, above the cap {max_tiles}")
    if exponent > math.log(MEMORY_BUDGET / tile_bytes):
        raise ResourceLimitError(_over_budget(least, tile_bytes))
    work = 1 + len(loops) * ell  # hub_patch builds H(k) >= len(loops) leaves for each k >= 1
    if work <= DEFAULT_TILE_CAP:  # else refused before any count
        counts = count_hub_tiles(loops, ell)
        check_tile_cap(counts[-1], max_tiles, tile_bytes)
        work = sum(counts)
    if work > DEFAULT_TILE_CAP:
        raise ResourceLimitError(f"patch would build at least {work} leaves, above the cap {DEFAULT_TILE_CAP}")


def chain_label_bases(loops: tuple[int, ...]) -> list[int]:
    """Entry i is 1 + sum(c_j - 1 for j < i): the tile s steps along loop
    i, 0 < s < c_i, has that label plus s.  Label 1 is the hub."""
    return list(accumulate((c - 1 for c in loops[:-1]), initial=1))


def hub_patch(loops: tuple[int, ...], xi: float, ell: int, labelled: bool) -> Patch:
    """The patch grown ell steps from the hub of a flower with these
    loops, longest first, and inflation xi, anchored at zero.

    A hub with k steps to go splits into one piece per loop, each
    starting where the one before ends.  Piece i has length
    xi**(k - c_i) and is a hub again while k - c_i > 0, else a leaf;
    with ``labelled`` a leaf carries its label, that of the tile k steps
    along loop i (``chain_label_bases``), or the hub's when k = c_i.  The
    leaves below a hub depend on k alone, so they are built once for
    each k, from those of its pieces, and dropped after the last step
    that reads them: step k + c, c the longest loop with k + c <= ell.
    A position sums the lengths of the elder siblings up its path in
    ascending order from the integer 0, as ``term_sums`` does.  With two
    loops every length a deeper piece adds is below its elder sibling's,
    so that one is added last; more loops can repeat or interleave
    powers, so a leaf keeps its exponents for one merged sum at the end.
    """
    bases = chain_label_bases(loops)
    # loop i reads below[k - c_i] last past step ends[i]: when no equal loop
    # after it reads it at step k, nor a longer loop d by step ell
    ends = [ell if c in loops[i + 1:] else ell + c - min((d for d in loops if d > c), default=ell + c)
            for i, c in enumerate(loops)]
    two = len(loops) == 2
    start = 0 if two else ()
    below = {}  # below[k]: the leaves of a hub k steps to go
    for k in range(1, ell + 1):
        positions, lengths, labels = [], [], []
        shift = start
        for i, c in enumerate(loops):
            e = k - c
            if e > 0:
                inner, sizes, names = below.pop(e) if k > ends[i] else below[e]
            else:
                inner, sizes, names = [start], [xi**e], [bases[i] + k if e else 1]
            positions += [x + shift for x in inner] if i else inner
            lengths += sizes
            if labelled:
                labels += names
            shift = xi**e if two else shift + (e,)
        if k == ell or k + loops[-1] <= ell:  # else no step reads it
            below[k] = positions, lengths, labels
    positions, lengths, labels = below.pop(ell) if ell else ([start], [1.0], [1])
    if not two:
        power = {e: xi**e for c in loops for e in range(1 - c, ell + 1 - c)}  # every k - c_i
        positions = term_sums((sorted(Counter(terms).items()) for terms in positions), power)
    return Patch(positions, lengths, (0.0, xi**ell), labels if labelled else None)


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
    rows, row = tree.walk_shape()
    alpha_pow = [alpha**k for k in range(rows + 1)]  # every row's, and its left children's
    columns = [(1.0 - alpha) ** k for k in range(row)]
    step = tree.walk_steps(rows, row, 0, lambda a, n: [alpha_pow[a + 1] * q for q in columns[:n]])
    # the length of each id, and of the left children of the table's last row
    size = [s * q for s in [scale * p for p in alpha_pow[: len(step) // row + 1]] for q in columns]
    positions, lengths = [], []
    place, keep = positions.append, lengths.append
    stack = [(-1, 0.0)]  # popping the sentinel ends the walk
    pop, push = stack.pop, stack.append
    k, val, w = 0, 0.0, step[0]
    while True:
        while w < 0.0:  # down the left spine
            push((k + 1, val - w))
            k += row
            w = step[k]
        # a leaf at val: the left child of node k, or node k itself
        place(anchor + scale * val)
        if w:
            keep(size[k + row])
            val += w  # on along the row, to the right sibling
            k += 1
        else:
            keep(size[k])
            k, val = pop()
            if k < 0:
                break
        w = step[k]
    return Patch(positions, lengths, (anchor, anchor + scale))


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
    check_steps(ell)
    xi = solve_alpha(n, m) ** (-1.0 / n)
    check_hub_tile_cap((n, m), xi, ell, max_tiles)
    return hub_patch((n, m), xi, ell, False)
