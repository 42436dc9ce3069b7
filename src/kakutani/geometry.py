"""Exact geometry for substitution patches.

Tile lengths are tracked symbolically and evaluated to floats only at
output boundaries.  Two exact representations appear:

* ``LengthExponent(a, b)`` stands for ``alpha**a * (1-alpha)**b``; a
  ``PositionVector`` is an integer-coefficient sum of such terms.  This
  is the native currency of the multiscale substitution, where exact
  contiguity of consecutive tiles is an algebraic identity.
* ``XiPower(e)`` stands for ``xi**(-e)`` for the inflation constant xi
  of a commensurable ratio, and an ``XiSum`` is an integer-coefficient
  sum of powers of xi.  Fixed-scale (primitive) patches live here.

Positions are prefix sums of tile lengths: the generators extend a
position by one exact term per right child along the substitution
tree, so the statement "the next tile starts where this one ends"
never passes through floating point.  ``value`` folds the terms left to
right in ascending order, the same order the generators add them in.
"""
from __future__ import annotations

import bisect
import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from functools import reduce
from operator import add
from typing import NamedTuple, Union

from .errors import ParameterError

__all__ = [
    "LengthExponent",
    "PositionVector",
    "XiPower",
    "XiSum",
    "Tile",
    "Patch",
    "PointSet",
]


class LengthExponent(NamedTuple):
    """Exponent pair (a, b) naming the length alpha**a * (1-alpha)**b."""

    a: int
    b: int

    def value(self, alpha: float) -> float:
        return alpha**self.a * (1.0 - alpha) ** self.b


def left_sum(values: Iterable[float]) -> float:
    """Plain left-to-right float sum, starting from the integer 0.

    Unlike ``sum``, which compensates rounding from Python 3.12 on, this
    gives the same bits on every version, and the same bits as adding
    the values one at a time in the same order.  As with ``sum``, the
    empty sum is the integer 0.
    """
    return reduce(add, values, 0)


class _TermSum:
    """Immutable integer-coefficient sum of terms, kept sorted by key with
    equal keys merged and zero coefficients dropped."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping | Iterable[tuple] = ()):
        acc: dict = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for key, coeff in items:
            if coeff:
                key = self._key(key)
                acc[key] = acc.get(key, 0) + int(coeff)
        self._terms = tuple(sorted((k, c) for k, c in acc.items() if c))

    @classmethod
    def _from_sorted(cls, terms: tuple):
        """Wrap terms that are already sorted, merged and nonzero."""
        total = cls.__new__(cls)
        total._terms = terms
        return total

    @classmethod
    def zero(cls):
        return cls()

    @property
    def terms(self) -> tuple:
        return self._terms

    def __eq__(self, other: object) -> bool:
        return isinstance(other, type(self)) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(self._terms)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self._terms)!r})"


class PositionVector(_TermSum):
    """Integer-coefficient combination of alpha**a * (1-alpha)**b terms,
    keyed by (a, b).

    Immutable.  Used for tile positions relative to the patch anchor, in
    units of the patch scale.
    """

    __slots__ = ()

    @staticmethod
    def _key(key: tuple[int, int]) -> tuple[int, int]:
        return (int(key[0]), int(key[1]))

    def value(self, alpha: float) -> float:
        beta = 1.0 - alpha
        return left_sum(c * alpha**a * beta**b for (a, b), c in self._terms)


class XiSum(_TermSum):
    """Integer-coefficient combination of powers of the inflation constant,
    keyed by the power."""

    __slots__ = ()

    _key = staticmethod(int)

    def value(self, xi: float) -> float:
        return left_sum(c * xi**p for p, c in self._terms)


class XiPower(NamedTuple):
    """Length xi**(-exponent) of a prototile in a fixed-scale patch."""

    exponent: int

    def value(self, xi: float) -> float:
        return xi ** (-self.exponent)


ExactPosition = Union[PositionVector, XiSum]
ExactLength = Union[LengthExponent, XiPower]


@dataclass(frozen=True)
class Tile:
    """One tile: exact position and length plus their evaluated floats.

    ``label`` is None for multiscale tiles and a 1-based prototile index
    for fixed-scale patches.
    """

    position: ExactPosition
    length: ExactLength
    position_value: float
    length_value: float
    label: int | None = None


@dataclass(frozen=True)
class Patch:
    """A finite, contiguous, left-to-right run of tiles."""

    tiles: tuple[Tile, ...]
    support: tuple[float, float]
    info: Mapping[str, object] = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.tiles:
            raise ParameterError("a patch must contain at least one tile")
        vals = [t.position_value for t in self.tiles]
        if any(y <= x for x, y in zip(vals, vals[1:])):
            raise ParameterError("tile positions must be strictly increasing")

    def __len__(self) -> int:
        return len(self.tiles)

    def positions(self) -> tuple[float, ...]:
        return tuple(t.position_value for t in self.tiles)

    def lengths(self) -> tuple[float, ...]:
        return tuple(t.length_value for t in self.tiles)

    def labels(self) -> tuple[int | None, ...]:
        return tuple(t.label for t in self.tiles)

    def boundaries(self) -> tuple[float, ...]:
        """All tile boundaries, including the right edge of the support."""
        return self.positions() + (self.support[1],)


@dataclass(frozen=True)
class PointSet:
    """A strictly increasing finite point sequence with its observation window."""

    points: tuple[float, ...]
    window: tuple[float, float]

    def __post_init__(self) -> None:
        if self.window[0] > self.window[1]:
            raise ParameterError("window must be an interval")
        pts = self.points
        if any(y <= x for x, y in zip(pts, pts[1:])):
            raise ParameterError("points must be strictly increasing")

    @classmethod
    def from_iterable(
        cls, points: Iterable[float], window: tuple[float, float] | None = None
    ) -> "PointSet":
        pts = tuple(sorted(set(float(p) for p in points)))
        if window is None:
            window = (pts[0], pts[-1]) if pts else (0.0, 0.0)
        return cls(pts, window)

    def __len__(self) -> int:
        return len(self.points)

    def nearest_distance(self, x: float) -> float:
        """Distance from x to the nearest point, inf for an empty set."""
        pts = self.points
        if not pts:
            return math.inf
        i = bisect.bisect_left(pts, x)
        best = math.inf
        if i < len(pts):
            best = pts[i] - x
        if i > 0:
            best = min(best, x - pts[i - 1])
        return best
