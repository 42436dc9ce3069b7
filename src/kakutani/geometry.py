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

A ``Patch`` holds its floats and labels as columns; the ``Tile``
objects, with their exact positions and lengths, are built only when a
caller asks for ``tiles``.
"""
from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Mapping, Sequence
from functools import reduce
from itertools import islice
from operator import add, lt
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


def unit_sums(paths: Iterable[tuple], power: Mapping[int, float]) -> list[float]:
    """``left_sum([power[p] for p, _ in terms])`` for each path, with no list."""
    sums = []
    for terms in paths:
        total = 0
        for p, _ in terms:
            total = total + power[p]
        sums.append(total)
    return sums


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


class Tile(NamedTuple):
    """One tile: exact position and length plus their evaluated floats.

    ``label`` is None for multiscale tiles and a 1-based prototile index
    for fixed-scale patches.
    """

    position: ExactPosition
    length: ExactLength
    position_value: float
    length_value: float
    label: int | None = None


class Patch:
    """A finite, contiguous, left-to-right run of tiles, held as columns.

    Tile i starts at ``positions()[i]`` and has length ``lengths()[i]``
    and label ``labels()[i]``, which is None throughout a multiscale
    patch.  ``exact`` returns the exact positions and the exact lengths
    of the tiles, in order; ``tiles`` calls it on first access and keeps
    the ``Tile`` objects it builds, so a caller that reads only the
    columns builds none.  A patch is immutable; equality, hash and repr
    are by tiles and support, the info left out.
    """

    __slots__ = ("_support", "_info", "_positions", "_lengths", "_labels", "_exact", "_tiles")

    def __init__(
        self,
        positions: Sequence[float],
        lengths: Sequence[float],
        support: tuple[float, float],
        exact: Callable[[], tuple[Iterable[ExactPosition], Iterable[ExactLength]]],
        labels: Sequence[int] | None = None,
        info: Mapping[str, object] | None = None,
    ) -> None:
        if not positions:
            raise ParameterError("a patch must contain at least one tile")
        if not all(map(lt, positions, islice(positions, 1, None))):
            raise ParameterError("tile positions must be strictly increasing")
        if len(lengths) != len(positions) or (
            labels is not None and len(labels) != len(positions)
        ):
            raise ParameterError("every column needs one entry per tile")
        self._positions = tuple(positions)
        self._lengths = tuple(lengths)
        self._labels = None if labels is None else tuple(labels)
        self._exact = exact
        self._tiles: tuple[Tile, ...] | None = None
        self._support = support
        self._info = {} if info is None else info

    @property
    def support(self) -> tuple[float, float]:
        return self._support

    @property
    def info(self) -> Mapping[str, object]:
        return self._info

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Patch) and (self.tiles, self._support) == (
            other.tiles,
            other._support,
        )

    def __hash__(self) -> int:
        return hash((self.tiles, self._support))

    def __repr__(self) -> str:
        return f"Patch(tiles={self.tiles!r}, support={self._support!r})"

    def __len__(self) -> int:
        return len(self._positions)

    @property
    def tiles(self) -> tuple[Tile, ...]:
        if self._tiles is None:
            where, size = self._exact()
            self._tiles = tuple(
                map(Tile, where, size, self._positions, self._lengths, self.labels())
            )
        return self._tiles

    def positions(self) -> tuple[float, ...]:
        return self._positions

    def lengths(self) -> tuple[float, ...]:
        return self._lengths

    def labels(self) -> tuple[int | None, ...]:
        return (None,) * len(self) if self._labels is None else self._labels

    def boundaries(self) -> tuple[float, ...]:
        """All tile boundaries, including the right edge of the support."""
        return self._positions + (self._support[1],)


class PointSet:
    """A strictly increasing finite point sequence with its observation
    window.  Immutable; equality, hash and repr are by both fields."""

    __slots__ = ("_points", "_window")

    def __init__(self, points: tuple[float, ...], window: tuple[float, float]) -> None:
        if window[0] > window[1]:
            raise ParameterError("window must be an interval")
        if any(y <= x for x, y in zip(points, points[1:])):
            raise ParameterError("points must be strictly increasing")
        self._points = points
        self._window = window

    @property
    def points(self) -> tuple[float, ...]:
        return self._points

    @property
    def window(self) -> tuple[float, float]:
        return self._window

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self._points, self._window) == (other._points, other._window)

    def __hash__(self) -> int:
        return hash((self._points, self._window))

    def __repr__(self) -> str:
        return f"PointSet(points={self._points!r}, window={self._window!r})"

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
