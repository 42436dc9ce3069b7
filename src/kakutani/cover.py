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

``iterate_primitive`` grows patches of this rule with exact positions
(integer sums of powers of xi) and ``verify_cover`` checks, exactly,
that after any number of steps the fixed-scale patch and the multiscale
patch are the same subdivision of the line.  In both a position is the
sum of the lengths to its left, so the check compares the two words of
length exponents.

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
from itertools import chain
from typing import NamedTuple

from . import engine
from .errors import ParameterError
from .geometry import Patch, XiPower, XiSum, left_sum, unit_sums
from .params import _loop_alpha, check_exponent_pair
from .polynomials import IntPolynomial

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

ImageMap = tuple[tuple[tuple[int, XiSum], ...], ...]


class LoopRule(NamedTuple):
    """Fixed-scale substitution of a flower with loops c_1 >= ... >= c_p.

    The prototile lengths are powers of xi, the root xi > 1 of
    sum(xi**-c_i) = 1; ``alpha`` is the length xi**-c_1 of the first
    hub piece.  Only the loop counts are part of the combinatorics.
    """

    loops: tuple[int, ...]
    alpha: float
    xi: float
    length_exponents: tuple[int, ...]
    prototile_lengths: tuple[float, ...]
    image_map: ImageMap

    @property
    def size(self) -> int:
        return len(self.length_exponents)

    @property
    def polynomial(self) -> IntPolynomial:
        """x**c_1 - sum(x**(c_1 - c_i)): the relation of xi, and the
        characteristic polynomial with its power of x stripped."""
        return _loop_polynomial(self.loops[0], self.loops)


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

    def _matmul(self, other: "SubstitutionMatrix") -> "SubstitutionMatrix":
        k = self.size
        a, b = self.entries, other.entries
        return SubstitutionMatrix(
            tuple(
                tuple(sum(a[i][l] * b[l][j] for l in range(k)) for j in range(k))
                for i in range(k)
            )
        )

    def is_primitive(self) -> bool:
        """Some power has all entries positive; checked up to size**2."""
        k = self.size
        acc = self
        for _ in range(k * k):
            if all(c > 0 for row in acc.entries for c in row):
                return True
            acc = acc._matmul(self)
        return False


def _loop_rule(loops: tuple[int, ...]) -> LoopRule:
    """The rule of the subdivided flower with the given loops, longest first.

    Label 1 is the hub.  Loop i (zero-based, in the given order)
    contributes loops[i] - 1 chain labels, consecutively.  Hub children
    are emitted in loop order with exact cumulative offsets; chain
    prototiles are pass-through.
    """
    alpha = _loop_alpha(loops)
    xi = alpha ** (-1.0 / loops[0])
    size = 1 + sum(c - 1 for c in loops)
    exponents = [0] * size
    starts: list[int] = []
    nxt = 2
    for c in loops:
        starts.append(nxt)
        for s in range(1, c):
            exponents[nxt + s - 2] = c - s
        nxt += c - 1

    hub_children = tuple(
        (starts[i] if c >= 2 else 1, XiSum((-d, 1) for d in loops[:i]))
        for i, c in enumerate(loops)
    )
    images: list[tuple[tuple[int, XiSum], ...]] = [hub_children]
    for i, c in enumerate(loops):
        for s in range(1, c):
            label = starts[i] + s - 1
            succ = label + 1 if s <= c - 2 else 1
            images.append(((succ, XiSum.zero()),))
    return LoopRule(
        loops=loops,
        alpha=alpha,
        xi=xi,
        length_exponents=tuple(exponents),
        prototile_lengths=tuple(xi**-e for e in exponents),
        image_map=tuple(images),
    )


def build_rho(n: int, m: int) -> LoopRule:
    """The covering fixed-scale rule for the commensurable ratio n/m."""
    check_exponent_pair(n, m)
    if n == m:
        raise ParameterError("the lattice ratio (1, 1) needs no cover")
    return _loop_rule((n, m))


def build_three_interval_rule(n: int, m: int, k: int) -> LoopRule:
    """Fixed-scale rule for a three-way split with loop counts n >= m >= k."""
    if not (n >= m >= k >= 1):
        raise ParameterError(f"need n >= m >= k >= 1, got ({n}, {m}, {k})")
    if math.gcd(math.gcd(n, m), k) != 1:
        raise ParameterError(f"loop counts ({n}, {m}, {k}) must be coprime overall")
    if n == m == k:
        raise ParameterError("equal loop counts give the trivial lattice split")
    return _loop_rule((n, m, k))


def substitution_matrix(rule: LoopRule) -> SubstitutionMatrix:
    """Count prototile copies in each image of the rule."""
    size = rule.size
    counts = [[0] * size for _ in range(size)]
    for j, children in enumerate(rule.image_map):
        for child, _offset in children:
            counts[child - 1][j] += 1
    return SubstitutionMatrix(tuple(tuple(row) for row in counts))


def _loop_polynomial(degree: int, loops: tuple[int, ...]) -> IntPolynomial:
    """x**degree - sum(x**(degree - c) for c in loops); equal powers add up."""
    terms = {degree: 1}
    for c in loops:
        terms[degree - c] = terms.get(degree - c, 0) - 1
    return IntPolynomial.from_terms(terms)


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
    return _loop_polynomial(size, tuple(loops))


def iterate_primitive(
    rule: LoopRule,
    ell: int,
    max_tiles: int = engine.DEFAULT_TILE_CAP,
) -> Patch:
    """The labelled patch after ell inflate-and-subdivide steps on the hub.

    Tiles are exact translates of prototiles.  The offset of a child made
    while ``left`` steps are still to go grows to offset * xi**left by
    the end, so a tile's position is the sum of those scaled offsets
    along its path in the label tree, built in one depth-first pass.
    """
    if ell < 0:
        raise ParameterError("ell must be nonnegative")
    engine.check_tile_cap(engine.count_hub_tiles(rule.loops, ell), max_tiles)
    xi = rule.xi
    children = [tuple(reversed(image)) for image in rule.image_map]
    # a label whose image is one child at offset zero just passes through
    through = [image[0][0] if len(image) == 1 and not image[0][1].terms else 0 for image in children]
    # What a label does depends on the steps still to go alone: it
    # pushes each child but the leftmost, right to left, and goes on into
    # the leftmost, each with its offset terms scaled by xi**left.
    def moves(image, left):
        scaled = [(child, left - 1, tuple((p + left, c) for p, c in at.terms)) for child, at in image]
        return tuple(scaled[:-1]), scaled[-1]

    plans = [
        None if through[label] else [moves(image, left) for left in range(ell + 1)]
        for label, image in enumerate(children)
    ]
    low = min(p for image in children for _, offset in image for p, _ in offset.terms)
    power = {p: xi**p for p in range(low + 1, ell + 1)}
    labels: list[int] = []
    found: list[tuple] = []
    stack: list[tuple[int, int, tuple]] = [(1, ell, ())]
    pop, push = stack.pop, stack.append
    while stack:
        label, left, terms = pop()
        while left:
            if through[label - 1]:
                label, left = through[label - 1], left - 1
                continue
            rights, (label, left, shifted) = plans[label - 1][left]
            for child, rest, offset in rights:
                push((child, rest, offset + terms))
            terms = shifted + terms
        labels.append(label)
        found.append(terms)
    # With two loops only the second hub child has an offset, one power of
    # coefficient one that strictly decreases along a path: prepending
    # keeps the terms sorted.  Three loops can repeat a power, so those
    # are merged.
    two_loops = len(children[0]) == 2
    exact_terms = found if two_loops else [XiSum(terms).terms for terms in found]

    def exact() -> tuple[list[XiSum], list[XiPower]]:
        lengths = [XiPower(e) for e in rule.length_exponents]
        return (
            [XiSum._from_sorted(terms) for terms in exact_terms],
            [lengths[label - 1] for label in labels],
        )

    return Patch(
        unit_sums(found, power)
        if two_loops
        else [left_sum([c * power[p] for p, c in terms]) for terms in exact_terms],
        [rule.prototile_lengths[label - 1] for label in labels],
        (0.0, xi**ell),
        exact,
        labels=labels,
        info={"ell": ell, "xi": xi, "rule_size": rule.size},
    )


class CoverReport(NamedTuple):
    """Outcome of an exact cover check at one step count."""

    ok: bool
    n: int
    m: int
    ell: int
    tile_count: int
    first_mismatch: int | None
    raw_equal: bool

    def __bool__(self) -> bool:
        return self.ok


def _rule_word(rule: LoopRule, ell: int) -> list[int]:
    """Length exponents of the leaves of the rule's label tree, in order.

    The word of a label after k steps is its length exponent for k = 0
    and the words of its image labels after k - 1 steps, concatenated.
    A one-label image reuses its child's word.
    """
    words = [[e] for e in rule.length_exponents]
    for _ in range(ell):
        words = [
            words[image[0][0] - 1]
            if len(image) == 1
            else list(chain.from_iterable(words[child - 1] for child, _ in image))
            for image in rule.image_map
        ]
    return words[0]


def _multiscale_word(n: int, m: int, ell: int) -> list[int]:
    """Length exponents of the leaves of the engine's tree, in order.

    A tile xi**e with e > 0 splits into xi**(e - n), xi**(e - m); a leaf
    xi**e has exponent -e.  Words are kept only while a later split
    still needs them.
    """
    words = {e: [-e] for e in range(1 - n, 1)}
    for e in range(1, ell + 1):
        words[e] = words[e - n] + words[e - m]
        del words[e - n]
    return words[ell]


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
    split.  ``first_mismatch`` is the first index where they differ, -1
    when the tile counts differ.  Both sides build positions from the
    same hub splits, so ``raw_equal`` (term-wise equal exact positions)
    holds exactly when the words agree.
    """
    rule = build_rho(n, m)
    engine.check_tile_cap(engine.count_tiles_commensurable(n, m, ell), max_tiles)
    fixed = _rule_word(rule, ell)
    multi = _multiscale_word(n, m, ell)
    ok = fixed == multi
    first_mismatch: int | None = None
    if len(fixed) != len(multi):
        first_mismatch = -1
    elif not ok:
        first_mismatch = next(i for i, (a, b) in enumerate(zip(fixed, multi)) if a != b)
    return CoverReport(
        ok=ok,
        n=n,
        m=m,
        ell=ell,
        tile_count=len(fixed),
        first_mismatch=first_mismatch,
        raw_equal=ok,
    )
