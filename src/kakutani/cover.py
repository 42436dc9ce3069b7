"""Fixed-scale substitution rules covering the multiscale construction.

For a commensurable ratio r = n/m the two log-lengths are n*g and m*g
for a common unit g, so both loops of the walk graph subdivide into
edges of length g.  The subdivided graph has one hub vertex (the unit
interval) plus chains of pass-through vertices, one chain per loop, and
reading tiles off walks turns it into an ordinary primitive substitution
with inflation constant xi = e**g = alpha**(-1/n):

* prototile 1 is the unit interval; the chain vertex reached from the
  hub in s steps along a loop of c edges is a prototile of length
  xi**(s - c) (it completes the loop in c - s more steps);
* the hub splits into one piece per loop, the loop with more edges
  first, so for two loops the alpha-piece sits on the left;
* every chain prototile maps to the single next prototile on its loop.

A chain prototile only passes through, so a patch of the rule is the
flower's hub recursion, "k steps to go -> k - c_i, one piece per loop".
``iterate_primitive`` grows its patches by ``engine.hub_patch``, which
builds the leaves below a hub once for each k, from the loops alone.
``verify_cover`` checks, exactly, that after any number of steps the
fixed-scale patch and the multiscale patch are the same subdivision of
the line.  In both a position is the sum of the lengths to its left, so
the check compares two words of length exponents, the rule's read off
its label map one label at a time, from the hub.

The same machinery with three loops produces the three-interval rules
used by ``classify_three_interval``: ``LoopRule`` is one rule type for
any loop tuple, and ``build_rho`` and ``build_three_interval_rule``
validate the loops and build it.

Every cycle of the subdivided graph passes through the hub, so the
characteristic polynomial follows from the loop counts alone: it is
x^K - sum x^(K - c), and with its power of x stripped it is
``LoopRule.polynomial``, which the spectral verdicts take from the
loops.  ``char_poly`` reads the loops back off a matrix, to check a
matrix against the flower it claims to be.
"""
from __future__ import annotations

import math
from collections import deque
from typing import NamedTuple

from . import engine
from .errors import ParameterError
from .geometry import Patch
from .params import Commensurable, _loop_alpha, check_loop_triple
from .polynomials import IntPolynomial, loop_polynomial

__all__ = [
    "LoopRule",
    "SubstitutionMatrix",
    "CoverReport",
    "build_rho",
    "build_three_interval_rule",
    "substitution_matrix",
    "char_poly",
    "iterate_primitive",
    "verify_cover",
]


class LoopRule(NamedTuple):
    """Fixed-scale substitution of a flower with loops c_1 >= ... >= c_p.

    The prototile lengths are powers of xi, the root xi > 1 of
    sum(xi**-c_i) = 1; ``alpha`` is the length xi**-c_1 of the first
    hub piece.  Everything else is read off the loops, in the labels of
    ``engine.chain_label_bases``: the hub is label 1, and the chain
    tile s steps along a loop of c edges has length xi**(s - c).
    """

    loops: tuple[int, ...]
    alpha: float
    xi: float

    @property
    def size(self) -> int:
        return 1 + sum(self.loops) - len(self.loops)

    def length_exponent(self, label: int) -> int:
        """e for the prototile ``label`` of length xi**-e: 0 for the hub,
        c - s for the tile s steps along a loop of c edges."""
        if label == 1:
            return 0
        for b, c in zip(engine.chain_label_bases(self.loops), self.loops):
            if label < b + c:
                return b + c - label

    def image(self, label: int) -> tuple[int, ...]:
        """The child labels of the label's image, left to right: a piece
        per loop for the hub, the tile one step along it; the next tile on
        its loop for a chain tile, the hub after the last."""
        if label > 1:
            return (label + 1 if self.length_exponent(label) > 1 else 1,)
        bases = engine.chain_label_bases(self.loops)
        return tuple(b + 1 if c > 1 else 1 for b, c in zip(bases, self.loops))

    @property
    def is_primitive(self) -> bool:
        """Some power of the substitution matrix is positive.  The graph
        is strongly connected through the hub and its cycles are the
        loops, so its period is the gcd of the loop lengths."""
        return math.gcd(*self.loops) == 1

    @property
    def polynomial(self) -> IntPolynomial:
        """x**c_1 - sum(x**(c_1 - c_i)): the relation of xi, and the
        characteristic polynomial with its power of x stripped."""
        return loop_polynomial(self.loops[0], self.loops)


class SubstitutionMatrix(
    NamedTuple("SubstitutionMatrix", [("entries", tuple[tuple[int, ...], ...])])
):
    """Integer incidence matrix: entry (i, j) counts copies of prototile
    i+1 inside the image of prototile j+1."""

    __slots__ = ()

    def __new__(cls, entries: tuple[tuple[int, ...], ...]) -> "SubstitutionMatrix":
        k = len(entries)
        if k == 0 or any(len(r) != k for r in entries):
            raise ParameterError("substitution matrix must be square")
        return super().__new__(cls, entries)

    @classmethod
    def _make(cls, iterable) -> "SubstitutionMatrix":  # so _replace validates too
        return cls(*iterable)

    @property
    def size(self) -> int:
        return len(self.entries)


def _loop_rule(loops: tuple[int, ...]) -> LoopRule:
    """The rule of the subdivided flower with the given loops, longest first."""
    alpha = _loop_alpha(loops)
    return LoopRule(loops, alpha, alpha ** (-1.0 / loops[0]))


def build_rho(n: int, m: int) -> LoopRule:
    """The covering fixed-scale rule for the commensurable ratio n/m."""
    Commensurable(n, m)  # validates the pair
    if n == m:
        raise ParameterError("the lattice ratio (1, 1) needs no cover")
    return _loop_rule((n, m))


def build_three_interval_rule(n: int, m: int, k: int) -> LoopRule:
    """Fixed-scale rule for a three-way split with loop counts n >= m >= k."""
    check_loop_triple(n, m, k)
    return _loop_rule((n, m, k))


def substitution_matrix(rule: LoopRule) -> SubstitutionMatrix:
    """Count prototile copies in each image of the rule."""
    size = rule.size
    counts = [[0] * size for _ in range(size)]
    for j in range(size):
        for child in rule.image(j + 1):
            counts[child - 1][j] += 1
    return SubstitutionMatrix(tuple(tuple(row) for row in counts))


def char_poly(matrix: SubstitutionMatrix) -> IntPolynomial:
    """Exact characteristic polynomial det(xI - M) of a one-hub flower.

    In the cycle expansion det(xI - M) = sum over sets of disjoint
    cycles of (-1)**(number of cycles) * x**(K - total length), K the
    size.  Every loop passes through the hub (label 1), so no two cycles
    are disjoint and det(xI - M) = x**K - sum(x**(K - c_i)) over the
    loop lengths c_i.  They are read off the matrix: each edge out of the
    hub is followed through chain columns, each holding a single 1,
    until it returns to the hub.

    Raises ParameterError unless M is such a flower: a chain column
    whose successor is not a single 1, a vertex reached twice or a
    vertex never reached.
    """
    columns = list(zip(*matrix.entries))
    size = len(columns)
    hub = columns[0]
    if hub[0] < 0 or any(c not in (0, 1) for c in hub[1:]):
        raise ParameterError("not a flower: hub edge counts must be 0 or 1 off the hub")
    loops = [1] * hub[0]
    reached = [True] + [False] * (size - 1)
    for start in range(1, size):
        if not hub[start]:
            continue
        vertex, length = start, 1
        while vertex:
            if reached[vertex]:
                raise ParameterError(
                    f"not a flower: vertex {vertex + 1} is reached twice"
                )
            reached[vertex] = True
            column = columns[vertex]
            if column.count(0) != size - 1 or 1 not in column:
                raise ParameterError(
                    f"not a flower: vertex {vertex + 1} needs a single successor"
                )
            vertex, length = column.index(1), length + 1
        loops.append(length)
    if not all(reached):
        raise ParameterError(
            f"not a flower: vertex {reached.index(False) + 1} is never reached"
        )
    return loop_polynomial(size, tuple(loops))


def iterate_primitive(
    rule: LoopRule,
    ell: int,
    max_tiles: int = engine.DEFAULT_TILE_CAP,
) -> Patch:
    """The labelled patch after ell inflate-and-subdivide steps on the hub.

    Tiles are translates of prototiles.  A chain prototile only
    passes through to the next one on its loop, so the patch is the hub
    split "k steps to go -> k - c_i, one piece per loop" that
    ``engine.hub_patch`` builds from the loops alone, with each leaf's
    label attached.
    """
    engine.check_steps(ell)
    engine.check_hub_tile_cap(rule.loops, rule.xi, ell, max_tiles)
    return engine.hub_patch(rule.loops, rule.xi, ell, labelled=True)


class CoverReport(NamedTuple):
    """Outcome of an exact cover check at one step count."""

    ok: bool
    n: int
    m: int
    ell: int
    tile_count: int
    first_mismatch: int | None

    def __bool__(self) -> bool:
        return self.ok


def _rule_word(rule: LoopRule, ell: int) -> list[int]:
    """Length exponents of the leaves of the rule's label tree, in order.

    The word of a label after k steps is its length exponent for k = 0
    and the words of its image labels after k - 1 steps, concatenated.
    Each piece of the hub's image passes through one-label images, read
    at most ell labels on: after k steps it adds the exponent of the
    label it has reached or, back at the hub after c <= k steps, the
    hub's word after k - c.
    """
    pieces = []  # (the words a piece adds passing through, c): back at the hub after c steps, or c > ell
    for label in rule.image(1):
        passing = []
        while label != 1 and len(passing) < ell:
            passing.append([rule.length_exponent(label)])
            (label,) = rule.image(label)
        pieces.append((passing, len(passing) + 1))
    words = deque([[rule.length_exponent(1)]], maxlen=max((c for _, c in pieces if c <= ell), default=1))
    for k in range(1, ell + 1):
        word = []
        for passing, c in pieces:
            word += passing[k - 1] if k < c else words[-c]
        words.append(word)
    return words[-1]


def _multiscale_word(n: int, m: int, ell: int) -> list[int]:
    """Length exponents of the leaves of the engine's tree, in order.

    A tile xi**e with e > 0 splits into xi**(e - n), xi**(e - m); a leaf
    xi**e has exponent -e.  A word is dropped after its last read: the
    split n steps on, or m steps on when that one is past ell.
    """
    words: dict[int, list[int]] = {}
    for e in range(1, ell + 1):
        words[e] = (words.pop(e - n) if e > n else [n - e]) + (words[e - m] if e > m else [m - e])
        if e - m + n > ell:
            words.pop(e - m, None)
    return words.get(ell, [0])


def verify_cover(
    n: int,
    m: int,
    ell: int,
    max_tiles: int = engine.DEFAULT_TILE_CAP,
) -> CoverReport:
    """Check that the fixed-scale patch equals the multiscale patch.

    In both patches a tile starts where the tiles to its left end, so
    two patches on the same anchor coincide exactly when their words of
    length exponents do.  The two words come from independent trees: the
    covering rule's label tree and the engine's e -> (e - n, e - m)
    split.  The rule's word reads only the labels within ell steps of the
    hub, so the check costs its tiles and steps, not its loop length.
    ``first_mismatch`` is the first index where the words differ, -1
    when the tile counts differ.
    """
    rule = build_rho(n, m)
    engine.check_steps(ell)
    # the two words peaked near 36 bytes a tile in RSS (3/2 at 50 steps)
    engine.check_hub_tile_cap(rule.loops, rule.xi, ell, max_tiles, tile_bytes=48)
    fixed, multi = _rule_word(rule, ell), _multiscale_word(n, m, ell)
    first_mismatch: int | None = None
    if len(fixed) != len(multi):
        first_mismatch = -1
    elif fixed != multi:
        first_mismatch = next(i for i, (a, b) in enumerate(zip(fixed, multi)) if a != b)
    return CoverReport(fixed == multi, n, m, ell, len(fixed), first_mismatch)
