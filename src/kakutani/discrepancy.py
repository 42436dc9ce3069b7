"""Endpoint-counting discrepancy of substitution patches.

Anchor the patch at zero, collect the left endpoints of its tiles, and
compare the count in [0, x] with density * x.  For uniformly spread
parameters the deviation stays bounded; for commensurable non-spread
parameters it grows like a power of the window dictated by the second
eigenvalue; for incommensurable parameters it grows like
window / log(window).

Counting never materializes tiles.  ``prefix_count`` descends
``engine.SubdivisionTree``: subtrees fully inside [0, x] contribute
memoized leaf counts, subtrees outside contribute nothing, and only the
nodes straddling x recurse, so a query costs O(t) after an O(t^2) table
build.  The discrepancy scan goes one step further: the deviation
profile of a subtree depends only on its exponent pair, so each pair
gets an exact (sup, inf) of the running deviation over its span, and
the maximum over a window is assembled from O(t) of these profiles.
The result equals an exact scan over every tile boundary and its left
limit, at cost independent of the number of points.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cover import build_rho, substitution_matrix
from .engine import SubdivisionTree
from .errors import ParameterError
from .params import (
    Incommensurable,
    RatioClass,
    check_alpha,
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
    1/log(2) but true commensurable density 1.
    """
    check_alpha(alpha)
    if ratio is None:
        ratio = detect_commensurability(alpha, 64)
    if isinstance(ratio, Incommensurable):
        entropy = -alpha * math.log(alpha) - (1.0 - alpha) * math.log1p(-alpha)
        return DensityValue(1.0 / entropy, "closed_form")
    return DensityValue(_perron_density(ratio.n, ratio.m), "perron")


class _DeviationProfile:
    """Exact extrema of count([0, x]) - density * x over subtree spans."""

    def __init__(self, tree: SubdivisionTree, density: float):
        self.tree = tree
        self.density = density
        self._hi: dict[tuple[int, int], float] = {}
        self._lo: dict[tuple[int, int], float] = {}

    def _tables(self, a: int, b: int) -> tuple[float, float]:
        hi, lo = self._hi, self._lo
        tree = self.tree
        d = self.density
        stack = [(a, b)]
        while stack:
            key = stack[-1]
            if key in hi:
                stack.pop()
                continue
            if tree.is_leaf(*key):
                # the deviation jumps to 1 at the left endpoint and then
                # decays linearly toward the right edge
                hi[key] = 1.0
                lo[key] = 1.0 - d * tree.width(*key)
                stack.pop()
                continue
            left = (key[0] + 1, key[1])
            right = (key[0], key[1] + 1)
            ready = True
            for child in (left, right):
                if child not in hi:
                    stack.append(child)
                    ready = False
            if ready:
                step = tree.leaves(*left) - d * tree.width(*left)
                hi[key] = max(hi[left], step + hi[right])
                lo[key] = min(lo[left], step + lo[right])
                stack.pop()
        return hi[(a, b)], lo[(a, b)]

    def max_abs_upto(self, x: float) -> float:
        """sup over 0 <= y <= x of |count([0, y]) - density * y|,
        including left limits at the tile boundaries."""
        tree = self.tree
        d = self.density
        if x < 0.0:
            raise ParameterError("window must be nonnegative")
        if x > tree.support * (1.0 + 1e-12):
            raise ParameterError("window lies beyond the patch support")
        best_hi = -math.inf
        best_lo = math.inf
        a, b, left, acc = 0, 0, 0.0, 0.0
        while True:
            width = tree.width(a, b)
            if x >= left + width:
                hi, lo = self._tables(a, b)
                best_hi = max(best_hi, acc + hi)
                best_lo = min(best_lo, acc + lo)
                break
            if tree.is_leaf(a, b):
                if left <= x:
                    best_hi = max(best_hi, acc + 1.0)
                    best_lo = min(best_lo, acc + 1.0 - d * (x - left))
                break
            wl = tree.width(a + 1, b)
            if x < left + wl:
                a += 1
                continue
            hi, lo = self._tables(a + 1, b)
            best_hi = max(best_hi, acc + hi)
            best_lo = min(best_lo, acc + lo)
            acc += tree.leaves(a + 1, b) - d * wl
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
    the cross-check and only sensible for small t.
    """
    if not windows:
        raise ParameterError("need at least one window")
    ordered = tuple(float(w) for w in windows)
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
    maxima = [0.0] * len(windows)
    running = 0.0
    wi = 0
    count = 0
    for left in tree.iter_leaves(windows[-1]):
        while wi < len(windows) and left > windows[wi]:
            maxima[wi] = max(running, abs(count - density * windows[wi]))
            wi += 1
        if wi >= len(windows):
            return tuple(maxima)
        running = max(running, abs(count - density * left))
        count += 1
        running = max(running, count - density * left)
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
