"""Exact geometry for substitution patches.

A patch holds float positions and lengths, which the generators compute
directly, and it can also give each tile's position and length exactly.
Two exact representations appear:

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
never passes through floating point.  A float position is those terms
added left to right in ascending order.

A ``Patch`` holds its floats and labels as columns; the ``Tile``
objects, with their exact positions and lengths, are built only when a
caller asks for ``tiles``.  The Delone set of a patch is its
``positions()``, observed in the window ``support``.
"""
from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping, Sequence
from itertools import islice
from operator import lt
from typing import NamedTuple, Union

from .errors import ParameterError

__all__ = [
    "LengthExponent",
    "PositionVector",
    "XiPower",
    "XiSum",
    "Tile",
    "Patch",
]


class LengthExponent(NamedTuple):
    """Exponent pair (a, b) naming the length alpha**a * (1-alpha)**b."""

    a: int
    b: int


def term_sums(paths: Iterable[tuple], power: Mapping[int, float]) -> list[float]:
    """For each path of (p, c) terms, the sum of ``c * power[p]`` added left
    to right from the integer 0, the same bits on every Python version
    (``sum`` compensates from 3.12 on); a coefficient of one is not multiplied."""
    sums = []
    for terms in paths:
        total = 0
        for p, c in terms:
            total = total + (power[p] if c == 1 else c * power[p])
        sums.append(total)
    return sums


class _TermSum:
    """Immutable integer-coefficient sum of terms, kept sorted by key with
    equal keys merged and zero coefficients dropped."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Iterable[tuple] = ()):
        acc: dict = {}
        for key, coeff in terms:
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


class XiSum(_TermSum):
    """Integer-coefficient combination of powers of the inflation constant,
    keyed by the power."""

    __slots__ = ()

    _key = staticmethod(int)


class XiPower(NamedTuple):
    """Length xi**(-exponent) of a prototile in a fixed-scale patch."""

    exponent: int


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
    are by tiles and support.
    """

    __slots__ = ("_support", "_positions", "_lengths", "_labels", "_exact", "_tiles")

    def __init__(
        self,
        positions: Sequence[float],
        lengths: Sequence[float],
        support: tuple[float, float],
        exact: Callable[[], tuple[Iterable[ExactPosition], Iterable[ExactLength]]],
        labels: Sequence[int] | None = None,
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

    @property
    def support(self) -> tuple[float, float]:
        return self._support

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
