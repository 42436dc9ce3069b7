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
the tree's staircase of internal pairs, one per row, so a query makes
O(t) steps of O(t) binomials each and stores one integer per row.  The
discrepancy scan goes one step further: the deviation profile of a
subtree depends only on its exponent pair, so each internal pair gets
an exact (sup, inf) of the running deviation over its span, together
with its leaf count, in a table filled row by row along the staircase,
and the maximum over a window is assembled from O(t) of these entries.
The result equals an exact scan over every tile boundary and its left
limit, at cost independent of the number of points.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .cover import build_rho, substitution_matrix
from .engine import DEFAULT_TILE_CAP, LENGTH_ONE_SLACK, SubdivisionTree
from .errors import ParameterError, ResourceLimitError
from .params import (
    Incommensurable,
    RatioClass,
    check_alpha,
    detect_commensurability,
)
from .spectral import check_spectral_degree

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


@dataclass(frozen=True)
class DensityValue:
    """Asymptotic endpoint density together with the method that produced it."""

    value: float
    method: str  # "closed_form" or "perron"


def _perron_density(n: int, m: int) -> float:
    """Density from the Perron data of the covering substitution.

    With u, v the right and left Perron eigenvectors, tile frequencies
    are proportional to u and the patch grown from the hub carries
    weight v[0], so points per unit length converge to
    sum(u) * v[0] / <v, u>.
    """
    import numpy as np  # imported on first use: a package import loads no numpy

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

    The table entry of an internal pair holds the sup and inf of the
    deviation over its subtree's span and the subtree's leaf count.  The
    internal pairs form the tree's staircase, so the entries sit in one
    list per row, filled from the row's end leftward: an entry needs the
    one below it, in the next row, and the one to its right.
    """

    def __init__(self, tree: SubdivisionTree, density: float):
        pairs = tree.internal_pairs()
        if pairs > DEFAULT_TILE_CAP:
            raise ResourceLimitError(
                f"a profile table of {pairs} pairs is above the cap {DEFAULT_TILE_CAP}"
            )
        self.tree = tree
        self.density = density
        self._ends = ends = tree.row_ends()
        # entry k of row a is the pair (a, ends[a] - k)
        self._rows: list[list[tuple[float, float, int]]] = [[] for _ in ends]

    def _leaf(self, a: int, b: int) -> tuple[float, float, int]:
        # the deviation jumps to 1 at the left endpoint and then decays
        # linearly toward the right edge
        return (1.0, 1.0 - self.density * self.tree.width(a, b), 1)

    def _tables(self, a: int, b: int) -> tuple[float, float, int]:
        ends = self._ends
        if a >= len(ends) or ends[a] < b:
            return self._leaf(a, b)
        k = ends[a] - b
        if k >= len(self._rows[a]):
            self._fill(a, b)
        return self._rows[a][k]

    def _fill(self, top: int, first: int) -> None:
        """Fill the entries of the subtree at internal pair (top, first),
        the rows bottom up."""
        t, la, lb = self.tree.t, self.tree.la, self.tree.lb
        d = self.density
        exp = math.exp
        ends, rows = self._ends, self._rows
        last = top
        while last + 1 < len(ends) and ends[last + 1] >= first:
            last += 1
        below: list[tuple[float, float, int]] = []
        below_end = -1
        for a in range(last, top - 1, -1):
            end = ends[a]
            row = rows[a]
            right = row[-1] if row else self._leaf(a, end + 1)
            for b in range(end - len(row), first - 1, -1):
                # the left child (a + 1, b): its entry, or a leaf of this width
                width = exp(t + (a + 1) * la + b * lb)
                if b <= below_end:
                    left = below[below_end - b]
                else:
                    left = (1.0, 1.0 - d * width, 1)
                step = left[2] - d * width
                right = (
                    max(left[0], step + right[0]),
                    min(left[1], step + right[1]),
                    left[2] + right[2],
                )
                row.append(right)
            below, below_end = row, end

    def max_abs_upto(self, x: float) -> float:
        """sup over 0 <= y <= x of |count([0, y]) - density * y|,
        including left limits at the tile boundaries."""
        tree = self.tree
        t, la, lb = tree.t, tree.la, tree.lb
        d = self.density
        exp = math.exp
        if x > tree.support * (1.0 + 1e-12):
            raise ParameterError("window lies beyond the patch support")
        best_hi = -math.inf
        best_lo = math.inf
        a, b, left, acc = 0, 0, 0.0, 0.0
        while True:
            # the leaf test and the width, as in SubdivisionTree
            log_width = t + a * la + b * lb
            if x >= left + exp(log_width):
                hi, lo, _count = self._tables(a, b)
                best_hi = max(best_hi, acc + hi)
                best_lo = min(best_lo, acc + lo)
                break
            if log_width <= LENGTH_ONE_SLACK:
                if left <= x:
                    best_hi = max(best_hi, acc + 1.0)
                    best_lo = min(best_lo, acc + 1.0 - d * (x - left))
                break
            wl = exp(t + (a + 1) * la + b * lb)
            if x < left + wl:
                a += 1
                continue
            # the count comes with the profile, from the same table entry
            hi, lo, count = self._tables(a + 1, b)
            if acc + hi > best_hi:
                best_hi = acc + hi
            if acc + lo < best_lo:
                best_lo = acc + lo
            acc += count - d * wl
            left += wl
            b += 1
        return max(best_hi, -best_lo, 0.0)


def prefix_count(alpha: float, t: float, x: float) -> int:
    """Endpoints of the depth-t patch anchored at zero that fall in [0, x]."""
    return SubdivisionTree(alpha, t).prefix_count(x)


@dataclass(frozen=True)
class DiscrepancySeries:
    """Max deviation per window, for a fixed parameter and patch depth."""

    alpha: float
    t: float
    density: float
    density_method: str
    windows: tuple[float, ...]
    max_disc: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.windows) != len(self.max_disc):
            raise ParameterError("windows and maxima must align")
        if any(b <= a for a, b in zip(self.windows, self.windows[1:])):
            raise ParameterError("windows must be strictly increasing")
        if any(
            b < a - 1e-9 * max(1.0, a) for a, b in zip(self.max_disc, self.max_disc[1:])
        ):
            raise ParameterError("max deviation cannot shrink as windows grow")


def dyadic_windows(low_exp: int, high_exp: int) -> tuple[float, ...]:
    """Window grid 2**low_exp .. 2**high_exp, one point per exponent."""
    if high_exp < low_exp:
        raise ParameterError("need low_exp <= high_exp")
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
    entry, and the direct scan when it would walk more leaves (counted
    exactly, by ``prefix_count``) or its walk table would hold more ids.
    """
    if not windows:
        raise ParameterError("need at least one window")
    ordered = tuple(float(w) for w in windows)
    if not all(0.0 <= w < math.inf for w in ordered):
        raise ParameterError("windows must be finite and nonnegative")
    density = asymptotic_density(alpha, ratio)
    tree = SubdivisionTree(alpha, t)
    support = tree.support
    if ordered[-1] > support * (1.0 + 1e-12):
        raise ParameterError(
            f"largest window {ordered[-1]} exceeds the patch support {support}"
        )
    if mode == "profile":
        profile = _DeviationProfile(tree, density.value)
        maxima = tuple(profile.max_abs_upto(w) for w in ordered)
    elif mode == "direct":
        # the scan walks every leaf up to the largest window: count them first
        walk = tree.prefix_count(ordered[-1], stop=DEFAULT_TILE_CAP)
        if walk > DEFAULT_TILE_CAP:
            raise ResourceLimitError(
                f"a direct scan to {ordered[-1]} walks more than "
                f"{DEFAULT_TILE_CAP} leaves, the cap"
            )
        maxima = _direct_scan(tree, density.value, ordered)
    else:
        raise ParameterError(f"unknown scan mode {mode!r}")
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
    while not tree.is_leaf(top, 0) and tree.width(top + 1, 0) > upto:
        top += 1
    # generate_patch's walk, streamed: a right child past upto is dropped,
    # and each leaf is handled where it is found, with no list of leaves.
    row, pairs, leaf = tree.walk_table(top, upto)
    step = [None if lf else tree.width(a + 1, b) for (a, b), lf in zip(pairs, leaf)]
    maxima = [0.0] * len(windows)
    running = 0.0
    count = 0.0  # a float holds every count below the cap exactly
    wi = 0
    edge = windows[0]
    stack = [(-1, 0.0)]  # popping the sentinel ends the walk
    pop, push = stack.pop, stack.append
    k, val = 0, 0.0
    while k >= 0:
        left = val
        if leaf[k]:
            k, val = pop()
        else:
            right = val + step[k]
            if not leaf[k + row]:
                if right <= upto:
                    push((k + 1, right))
                k += row
                continue
            # a leaf left child, then its right sibling inline
            k, val = (k + 1, right) if right <= upto else pop()
        while left > edge:
            maxima[wi] = max(running, abs(count - density * edge))
            wi += 1
            edge = windows[wi]
        # the left limit at the point, then the jump by one; the limit
        # matters only below zero, where it is -(count - x), bit for bit
        x = density * left
        low = x - count
        count += 1
        high = count - x
        if low > running:
            running = low
        if high > running:
            running = high
    for j in range(wi, len(windows)):
        maxima[j] = max(running, abs(count - density * windows[j]))
    return tuple(maxima)


@dataclass(frozen=True)
class GrowthFit:
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

    Requires at least 8 windows spanning at least 4 doublings.  A more
    complex model must win by a clear residual margin; exact ties go to
    the simpler model, so a flat series reads as constant even though a
    power law with exponent zero fits it equally well.
    """
    import numpy as np  # imported on first use: a package import loads no numpy

    windows = np.asarray(series.windows, dtype=float)
    values = np.asarray(series.max_disc, dtype=float)
    if len(windows) < 8:
        raise ParameterError("growth fits need at least 8 windows")
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
