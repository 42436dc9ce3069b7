"""Patches of substitution tilings, held as columns.

A ``Patch`` holds the float positions and lengths that the generators
compute directly, the tile labels and the support.  Positions are
prefix sums of tile lengths: the generators extend a position by one
term per right child along the substitution tree, the length of its
left sibling.  A fixed-scale position is those terms added left to
right in ascending order from the integer 0: with two loops the
recursion adds them in that order as it goes, and with three or more,
where powers repeat or interleave, ``term_sums`` adds the merged terms.

The Delone set of a patch is its ``positions()``, observed in the
window ``support``.
"""
from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from itertools import islice
from operator import lt
from typing import NamedTuple

from .errors import ParameterError

__all__ = ["Tile", "Patch"]


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


class Tile(NamedTuple):
    """One row of a patch: a tile's position, length and label.

    ``label`` is None for multiscale tiles and a 1-based prototile index
    for fixed-scale patches.
    """

    position_value: float
    length_value: float
    label: int | None = None


class Patch:
    """A finite, contiguous, left-to-right run of tiles, held as columns.

    Tile i starts at ``positions()[i]`` and has length ``lengths()[i]``
    and label ``labels()[i]``, which is None throughout a multiscale
    patch; ``tiles`` gives the same as rows.  A patch is immutable;
    equality, hash and repr are by its columns and support.
    """

    __slots__ = ("_support", "_positions", "_lengths", "_labels")

    def __init__(
        self,
        positions: Sequence[float],
        lengths: Sequence[float],
        support: tuple[float, float],
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
        self._support = support

    @property
    def support(self) -> tuple[float, float]:
        return self._support

    def _columns(self) -> tuple:
        return (self._positions, self._lengths, self.labels(), self._support)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Patch) and self._columns() == other._columns()

    def __hash__(self) -> int:
        return hash(self._columns())

    def __repr__(self) -> str:
        return (
            f"Patch(positions={self._positions!r}, lengths={self._lengths!r}, "
            f"support={self._support!r}, labels={self._labels!r})"
        )

    def __len__(self) -> int:
        return len(self._positions)

    @property
    def tiles(self) -> tuple[Tile, ...]:
        return tuple(map(Tile, self._positions, self._lengths, self.labels()))

    def positions(self) -> tuple[float, ...]:
        return self._positions

    def lengths(self) -> tuple[float, ...]:
        return self._lengths

    def labels(self) -> tuple[int | None, ...]:
        return (None,) * len(self) if self._labels is None else self._labels
