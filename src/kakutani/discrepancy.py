"""Endpoint-counting discrepancy of substitution patches.

Anchor the patch at zero, collect the left endpoints of its tiles, and
compare the count in [0, x] with density * x.  For uniformly spread
parameters the deviation stays bounded; for commensurable non-spread
parameters it grows like a power of the window dictated by the second
eigenvalue; for incommensurable parameters it grows like
window / log(window).

Counting never materializes tiles.  ``prefix_count`` descends
``engine.SubdivisionTree``: subtrees fully inside [0, x] contribute
their leaf counts, subtrees outside contribute nothing, and only the
nodes straddling x recurse.  A leaf count is a sum of binomials over
the tree's staircase of internal pairs, one per row, and the right
steps along a row come in runs whose leaves sum by the hockey-stick
identity, so a query makes O(t) runs of O(t) binomials each and stores
one integer per row.  The
discrepancy scan goes one step further: the deviation profile of a
subtree depends only on its exponent pair, so each node gets an exact
(sup, inf) of the running deviation over its span, together with its
leaf count, and the maximum over a window is assembled from O(t) of
these entries.  The table is kept by staircase row: flat ``hi``, ``lo``
and ``count`` lists over every node of the row, leaves included, and
the widths of those nodes, each computed once.  A row is filled whole,
with every row below it, the first time a descent walks along it, and
a descent reads widths, entries and the leaf test from the rows, with
no ``exp`` per step.  The result equals an exact scan over every tile
boundary and its left limit, at cost independent of the number of
points.
"""
from __future__ import annotations

import math
import sys
from functools import cache
from typing import NamedTuple, Sequence

from .engine import DEFAULT_TILE_CAP, SubdivisionTree
from .errors import ParameterError, ResourceLimitError
from .params import (
    Incommensurable,
    RatioClass,
    check_alpha,
    check_spectral_degree,
    detect_commensurability,
)

__all__ = [
    "DensityValue",
    "DiscrepancySeries",
    "GrowthFit",
    "asymptotic_density",
    "prefix_count",
    "discrepancy_scan",
    "dyadic_windows",
    "growth_fit",
]


class DensityValue(NamedTuple):
    """Asymptotic endpoint density together with the method that produced it."""

    value: float
    method: str  # "closed_form" or "perron"


@cache
def _perron_density(n: int, m: int) -> float:
    """Density from the Perron data of the covering substitution.

    With u, v the right and left Perron eigenvectors, tile frequencies
    are proportional to u and the patch grown from the hub carries
    weight v[0], so points per unit length converge to
    sum(u) * v[0] / <v, u>.  Kept per ratio: a scan asks for it each
    time, and each answer costs two dense eigensolves.
    """
    import numpy as np  # imported on first use: a package import loads no numpy

    from .cover import build_rho, substitution_matrix

    if n == m == 1:
        return 1.0
    matrix = substitution_matrix(build_rho(n, m))
    work = np.array(matrix.entries, dtype=float)
    eigvals, right = np.linalg.eig(work)
    lead = int(np.argmax(eigvals.real))
    u = np.abs(right[:, lead].real)
    eigvals_t, left = np.linalg.eig(work.T)
    lead_t = int(np.argmax(eigvals_t.real))
    v = np.abs(left[:, lead_t].real)
    return float(u.sum() * v[0] / (v @ u))


def asymptotic_density(alpha: float, ratio: RatioClass | None = None) -> DensityValue:
    """Expected endpoints per unit length for large patches.

    Incommensurable ratios use the closed form
    1 / (-alpha*log(alpha) - (1-alpha)*log(1-alpha)); commensurable
    ratios use the Perron eigendata of the covering substitution.  The
    two genuinely differ: the same alpha = 1/2 has closed form
    1/log(2) but true commensurable density 1.  The Perron eigendata
    come from a dense eigensolve of the n + m - 1 square matrix, so a
    ratio n/m with n above ``MAX_SPECTRAL_DEGREE`` is refused with
    ResourceLimitError before the matrix is built.
    """
    check_alpha(alpha)
    if ratio is None:
        ratio = detect_commensurability(alpha, 64)
    if isinstance(ratio, Incommensurable):
        entropy = -alpha * math.log(alpha) - (1.0 - alpha) * math.log1p(-alpha)
        return DensityValue(1.0 / entropy, "closed_form")
    check_spectral_degree(ratio.n)
    return DensityValue(_perron_density(ratio.n, ratio.m), "perron")


class _DeviationProfile:
    """Exact extrema of count([0, x]) - density * x over subtree spans.

    The table entry of a node (a, b) is the sup and the inf of the
    deviation over its subtree's span and the subtree's leaf count.  A
    leaf's entry is (1, 1 - density * width, 1): the deviation jumps to
    1 at its left endpoint and decays linearly to its right edge.  The
    table is kept by staircase row: row a holds flat lists ``hi``,
    ``lo`` and ``count``, and the widths ``tree.row_widths``, for
    every node of the row, columns 0 .. B(a - 1) + 1 (row 0:
    0 .. B(0) + 1).  An internal entry needs the one below it, in the
    next row, and the one to its right, so the rows are filled whole,
    bottom up, each once: the rows from ``_top`` down are filled, and a
    row above holds only the width of its spine node (a, 0).  A descent
    reads its widths, entries and leaf test from the rows, with no
    ``exp`` and no call per step.
    """

    def __init__(self, tree: SubdivisionTree, density: float):
        pairs = tree.internal_pairs()
        if pairs > DEFAULT_TILE_CAP:
            raise ResourceLimitError(
                f"a profile table of {pairs} pairs is above the cap {DEFAULT_TILE_CAP}"
            )
        self.tree = tree
        self.density = density
        # row len(ends) below the staircase has no internal column
        self._ends = ends = tree.row_ends() + [-1]
        self._widths = [tree.row_widths(a, 1) for a in range(len(ends))]
        self._top = len(ends)  # the rows from here down are filled
        self._hi: list[list[float]] = [[] for _ in ends]
        self._lo: list[list[float]] = [[] for _ in ends]
        self._count: list[list[int]] = [[] for _ in ends]

    def _fill(self, top: int) -> None:
        """Fill row top and the rows below it, whole, bottom up."""
        d = self.density
        ends, widths = self._ends, self._widths
        for a in range(self._top - 1, top - 1, -1):
            row = widths[a] = self.tree.row_widths(a, ends[max(a - 1, 0)] + 2)
            end = ends[a]
            # the leaves right of the row's end, then the internal nodes
            # from right to left
            hi = self._hi[a] = [1.0] * len(row)
            lo = self._lo[a] = [0.0] * (end + 1) + [1.0 - d * w for w in row[end + 1 :]]
            count = self._count[a] = [1] * len(row)
            if end < 0:
                continue
            below = widths[a + 1]
            next_hi, next_lo, next_count = self._hi[a + 1], self._lo[a + 1], self._count[a + 1]
            rh, rl, rc = 1.0, lo[end + 1], 1
            for b in range(end, -1, -1):
                c = next_count[b]
                step = c - d * below[b]
                v = step + rh
                h = next_hi[b]
                rh = v if v > h else h
                v = step + rl
                h = next_lo[b]
                rl = v if v < h else h
                rc += c
                hi[b] = rh
                lo[b] = rl
                count[b] = rc
        self._top = min(self._top, top)

    def max_abs_upto(self, x: float) -> float:
        """sup over 0 <= y <= x of |count([0, y]) - density * y|,
        including left limits at the tile boundaries."""
        d = self.density
        ends, widths = self._ends, self._widths
        best_hi = -math.inf
        best_lo = math.inf
        a, b, left, acc = 0, 0, 0.0, 0.0
        # down the left spine while x falls in the left child; a step down
        # leaves x short of the end of the node it reaches
        whole = x >= widths[0][0]
        if not whole:
            while ends[a] >= 0 and x < widths[a + 1][0]:
                a += 1
        self._fill(a)  # the row the descent walks along or ends in, and those below
        if not whole and ends[a] >= 0:
            his, los, counts = self._hi, self._lo, self._count
            row, below, end, split = widths[a], widths[a + 1], ends[a], ends[a + 1]
            next_hi, next_lo, next_count = his[a + 1], los[a + 1], counts[a + 1]
            while True:
                # (a, b) is internal and x lies short of its end
                wl = below[b]
                right = left + wl
                if x < right:
                    a += 1
                    if b > split:
                        break  # a leaf straddling x
                    row, below, end, split = below, widths[a + 1], split, ends[a + 1]
                    next_hi, next_lo, next_count = his[a + 1], los[a + 1], counts[a + 1]
                    continue
                # the left child lies in [0, x]: its entry
                v = acc + next_hi[b]
                if v > best_hi:
                    best_hi = v
                v = acc + next_lo[b]
                if v < best_lo:
                    best_lo = v
                acc += next_count[b] - d * wl
                left = right
                b += 1
                if x >= left + row[b]:
                    whole = True
                    break
                if b > end:
                    break  # a leaf straddling x
        if whole:
            # the subtree (a, b) lies in [0, x]
            best_hi = max(best_hi, acc + self._hi[a][b])
            best_lo = min(best_lo, acc + self._lo[a][b])
        elif left <= x:
            best_hi = max(best_hi, acc + 1.0)
            best_lo = min(best_lo, acc + 1.0 - d * (x - left))
        return max(best_hi, -best_lo, 0.0)


def prefix_count(alpha: float, t: float, x: float) -> int:
    """Endpoints of the depth-t patch anchored at zero that fall in [0, x]."""
    return SubdivisionTree(alpha, t).prefix_count(x)


class DiscrepancySeries(
    NamedTuple(
        "DiscrepancySeries",
        [
            ("alpha", float),
            ("t", float),
            ("density", float),
            ("density_method", str),
            ("windows", tuple[float, ...]),
            ("max_disc", tuple[float, ...]),
        ],
    )
):
    """Max deviation per window, for a fixed parameter and patch depth."""

    __slots__ = ()

    def __new__(
        cls,
        alpha: float,
        t: float,
        density: float,
        density_method: str,
        windows: tuple[float, ...],
        max_disc: tuple[float, ...],
    ) -> "DiscrepancySeries":
        if len(windows) != len(max_disc):
            raise ParameterError("windows and maxima must align")
        if any(b <= a for a, b in zip(windows, windows[1:])):
            raise ParameterError("windows must be strictly increasing")
        if any(b < a - 1e-9 * max(1.0, a) for a, b in zip(max_disc, max_disc[1:])):
            raise ParameterError("max deviation cannot shrink as windows grow")
        return super().__new__(cls, alpha, t, density, density_method, windows, max_disc)

    @classmethod
    def _make(cls, iterable) -> "DiscrepancySeries":  # so _replace validates too
        return cls(*iterable)


def dyadic_windows(low_exp: int, high_exp: int) -> tuple[float, ...]:
    """Window grid 2**low_exp .. 2**high_exp, one point per exponent."""
    if high_exp < low_exp:
        raise ParameterError("need low_exp <= high_exp")
    # 2**-1074 is the least positive float, 2**1023 the greatest power of two
    lowest = sys.float_info.min_exp - sys.float_info.mant_dig
    if low_exp < lowest or high_exp >= sys.float_info.max_exp:
        raise ParameterError(
            f"dyadic exponents must lie in the float range {lowest} .. {sys.float_info.max_exp - 1}"
        )
    return tuple(float(2**e) for e in range(low_exp, high_exp + 1))


def discrepancy_scan(
    alpha: float,
    t: float,
    windows: Sequence[float],
    ratio: RatioClass | None = None,
    mode: str = "profile",
) -> DiscrepancySeries:
    """Maximum absolute counting deviation over each window in the grid.

    ``mode="profile"`` (the default) evaluates the exact maximum over
    every boundary point and left limit via subtree deviation profiles.
    ``mode="direct"`` enumerates the boundary points one by one; it is
    the cross-check and only sensible for small t.  Each mode is refused
    up front, with ResourceLimitError, above ``engine.DEFAULT_TILE_CAP``:
    the profile when the tree has more internal pairs, each a table
    entry, and the direct scan when its walk table would hold more ids
    (``SubdivisionTree.walk_shape``, in closed form) or it would walk
    more leaves.  The leaves it walks lie below one node (top, 0), whose
    leaf count bounds them from above, and the bands along row top from
    below; only when the cap lies between are they counted exactly.
    The mode and the grid are checked before the density is computed or
    any row of the tree is built: the grid must be finite, nonnegative,
    strictly increasing and within the patch support.
    """
    if mode not in ("profile", "direct"):
        raise ParameterError(f"unknown scan mode {mode!r}")
    if not windows:
        raise ParameterError("need at least one window")
    ordered = tuple(float(w) for w in windows)
    if not all(0.0 <= w < math.inf for w in ordered):
        raise ParameterError("windows must be finite and nonnegative")
    if any(b <= a for a, b in zip(ordered, ordered[1:])):
        raise ParameterError("windows must be strictly increasing")
    tree = SubdivisionTree(alpha, t)
    support = tree.support
    if ordered[-1] > support * (1.0 + 1e-12):
        raise ParameterError(
            f"largest window {ordered[-1]} exceeds the patch support {support}"
        )
    density = asymptotic_density(alpha, ratio)
    if mode == "profile":
        profile = _DeviationProfile(tree, density.value)
        maxima = tuple(profile.max_abs_upto(w) for w in ordered)
    else:
        maxima = _direct_scan(tree, density.value, ordered)
    return DiscrepancySeries(
        alpha=alpha,
        t=t,
        density=density.value,
        density_method=density.method,
        windows=ordered,
        max_disc=maxima,
    )


def _direct_scan(
    tree: SubdivisionTree, density: float, windows: tuple[float, ...]
) -> tuple[float, ...]:
    # The deviation decreases linearly between points and jumps by one
    # at each point, so its extrema over a window sit at the points,
    # their left limits, and the window edge itself.
    upto = windows[-1]
    # Every leaf at or left of upto lies below the deepest node (top, 0)
    # of the leftmost path whose right child starts at or left of upto.
    top = 0
    while top < len(tree.row_ends()) and tree.row_widths(top + 1, 1)[0] > upto:
        top += 1
    # Refused before any table is built: a walk table above the cap, then
    # a walk of more leaves than the cap.  The leaves of (top, 0) bound the
    # walk from above and the bands along row top from below, in closed
    # form; only between them are the leaves it walks counted exactly.
    rows, row = tree.walk_shape(top, upto)
    if tree.leaves(top, 0) > DEFAULT_TILE_CAP and (
        tree.least_leaves_upto(top, upto) > DEFAULT_TILE_CAP
        or tree.prefix_count(upto) > DEFAULT_TILE_CAP
    ):
        raise ResourceLimitError(
            f"a direct scan to {upto} walks more than "
            f"{DEFAULT_TILE_CAP} leaves, the cap"
        )
    span = tree.walk_steps(rows, row, top, lambda a, n: tree.row_widths(a + 1, n))
    # generate_patch's walk, streamed: a right child past upto is dropped,
    # a right child is pushed only below an internal left child, and each
    # leaf is handled where it is found, with no list of leaves.
    maxima = [0.0] * len(windows)
    running = 0.0
    count = 0.0  # a float holds every count below the cap exactly
    wi = 0
    edge = windows[0]
    stack = [(-1, 0.0)]  # popping the sentinel ends the walk
    pop, push = stack.pop, stack.append
    k, val = 0, 0.0
    w = span[0]
    while True:
        while w < 0.0:  # down the left spine
            right = val - w
            if right <= upto:
                push((k + 1, right))
            k += row
            w = span[k]
        # a leaf at val: the left child of node k, or node k itself
        while val > edge:
            maxima[wi] = max(running, abs(count - density * edge))
            wi += 1
            edge = windows[wi]
        # the left limit at the point, then the jump by one; the limit
        # matters only below zero, where it is -(count - x), bit for bit
        x = density * val
        low = x - count
        count += 1
        high = count - x
        if low > running:
            running = low
        if high > running:
            running = high
        if w:
            val += w  # on along the row, to the right sibling
            if val <= upto:
                k += 1
                w = span[k]
                continue
        k, val = pop()
        if k < 0:
            break
        w = span[k]
    for j in range(wi, len(windows)):
        maxima[j] = max(running, abs(count - density * windows[j]))
    return tuple(maxima)


class GrowthFit(NamedTuple):
    """Least-squares comparison of growth models for a deviation series.

    Each residual is the minimized objective itself: the mean squared
    error of log(max_disc) under the model, so the three models are
    comparable across the decades the windows span.  The label is a
    heuristic reading of the residuals, not a proof.
    """

    best: str
    exponent: float | None
    residuals: dict[str, float]
    heuristic: bool = True


def growth_fit(series: DiscrepancySeries) -> GrowthFit:
    """Fit constant, power-law and W/log(W) growth to a deviation series.

    Requires at least 8 positive windows spanning at least 4 doublings.
    A more complex model must win by a clear residual margin; exact ties
    go to the simpler model, so a flat series reads as constant even
    though a power law with exponent zero fits it equally well.
    """
    import numpy as np  # imported on first use: a package import loads no numpy

    windows = np.asarray(series.windows, dtype=float)
    values = np.asarray(series.max_disc, dtype=float)
    if len(windows) < 8:
        raise ParameterError("growth fits need at least 8 windows")
    if not windows[0] > 0.0:  # the windows increase; each model takes their logs
        raise ParameterError("growth fits need positive windows")
    if windows[-1] / windows[0] < 16.0:
        raise ParameterError("growth fits need at least 4 doublings of window size")
    logs = np.log(np.maximum(values, 1e-12))
    logw = np.log(windows)

    residuals: dict[str, float] = {}
    # constant: best value is the mean of the logs
    residuals["constant"] = float(np.mean((logs - logs.mean()) ** 2))
    # power law: straight line in log-log
    design = np.stack([np.ones_like(logw), logw], axis=1)
    coef, *_ = np.linalg.lstsq(design, logs, rcond=None)
    exponent = float(coef[1])
    residuals["power"] = float(np.mean((logs - design @ coef) ** 2))
    # W / log W: fixed shape, free prefactor
    shape = logw - np.log(logw)
    offset = float(np.mean(logs - shape))
    residuals["w_over_log_w"] = float(np.mean((logs - shape - offset) ** 2))

    margin = 1e-9
    best = "constant"
    if residuals["w_over_log_w"] < residuals[best] - margin:
        best = "w_over_log_w"
    if residuals["power"] < residuals[best] - margin:
        best = "power"
    return GrowthFit(
        best=best,
        exponent=exponent,
        residuals=residuals,
    )
