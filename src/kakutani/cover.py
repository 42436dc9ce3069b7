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
patch are the same subdivision of the line.

The same machinery with three loops produces the three-interval rules
used by ``classify_three_interval``.

Every cycle of the subdivided graph passes through the hub, so the
characteristic polynomial follows from the loop counts alone:
``char_poly`` reads them off the matrix and returns x^K - sum x^(K - c).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from . import engine
from .errors import ParameterError, ResourceLimitError
from .geometry import Patch, Tile, XiPower, XiSum
from .params import check_exponent_pair, solve_alpha
from .polynomials import IntPolynomial

__all__ = [
    "PrimitiveRule",
    "ThreeIntervalRule",
    "SubstitutionMatrix",
    "CoverReport",
    "build_rho",
    "build_three_interval_rule",
    "substitution_matrix",
    "char_poly",
    "iterate_primitive",
    "tile_counts",
    "verify_cover",
    "solve_inflation",
]

ImageMap = tuple[tuple[tuple[int, XiSum], ...], ...]


@dataclass(frozen=True)
class PrimitiveRule:
    """Fixed-scale substitution covering the two-interval multiscale rule."""

    n: int
    m: int
    alpha: float
    xi: float
    length_exponents: tuple[int, ...]
    prototile_lengths: tuple[float, ...]
    image_map: ImageMap

    @property
    def size(self) -> int:
        return len(self.length_exponents)


@dataclass(frozen=True)
class ThreeIntervalRule:
    """Fixed-scale substitution for a three-way split with loop counts (n, m, k).

    The three interval lengths are xi**-n, xi**-m, xi**-k; only their
    log proportions n : m : k are part of the combinatorics, the lengths
    themselves are pinned by requiring the pieces to sum to one.
    """

    loops: tuple[int, int, int]
    xi: float
    length_exponents: tuple[int, ...]
    prototile_lengths: tuple[float, ...]
    image_map: ImageMap
    polynomial: IntPolynomial

    @property
    def size(self) -> int:
        return len(self.length_exponents)

    @property
    def interval_lengths(self) -> tuple[float, float, float]:
        n, m, k = self.loops
        return (self.xi**-n, self.xi**-m, self.xi**-k)


@dataclass(frozen=True)
class SubstitutionMatrix:
    """Integer incidence matrix: entry (i, j) counts copies of prototile
    i+1 inside the image of prototile j+1."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        k = len(self.entries)
        if k == 0 or any(len(r) != k for r in self.entries):
            raise ParameterError("substitution matrix must be square")

    @property
    def size(self) -> int:
        return len(self.entries)

    def column_sums(self) -> tuple[int, ...]:
        k = self.size
        return tuple(sum(self.entries[i][j] for i in range(k)) for j in range(k))

    def _matmul(self, other: "SubstitutionMatrix") -> "SubstitutionMatrix":
        k = self.size
        a, b = self.entries, other.entries
        return SubstitutionMatrix(
            tuple(
                tuple(sum(a[i][l] * b[l][j] for l in range(k)) for j in range(k))
                for i in range(k)
            )
        )

    def power(self, ell: int) -> "SubstitutionMatrix":
        """Exact matrix power by repeated squaring."""
        if ell < 0:
            raise ParameterError("matrix power must be nonnegative")
        k = self.size
        result = SubstitutionMatrix(
            tuple(tuple(1 if i == j else 0 for j in range(k)) for i in range(k))
        )
        base = self
        while ell:
            if ell & 1:
                result = result._matmul(base)
            base = base._matmul(base)
            ell >>= 1
        return result

    def is_primitive(self) -> bool:
        """Some power has all entries positive; checked up to size**2."""
        k = self.size
        acc = self
        for _ in range(k * k):
            if all(c > 0 for row in acc.entries for c in row):
                return True
            acc = acc._matmul(self)
        return False


def solve_inflation(loop_counts: tuple[int, ...]) -> float:
    """The inflation constant: the xi > 1 with sum(xi**-c) = 1.

    The left side is strictly decreasing in xi, larger than one at
    xi = 1 and smaller than one for xi = p + 1 with p loops, so
    bisection applies.
    """
    if any(c < 1 for c in loop_counts) or len(loop_counts) < 2:
        raise ParameterError("need at least two loops with positive edge counts")

    def excess(x: float) -> float:
        return sum(x**-c for c in loop_counts) - 1.0

    lo, hi = 1.0, float(len(loop_counts) + 1)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if not (lo < mid < hi):
            break
        if excess(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return hi


def _loop_rule(counts: tuple[int, ...], xi: float) -> tuple[tuple[int, ...], ImageMap]:
    """Length exponents and image map for the subdivided multi-loop graph.

    Label 1 is the hub.  Loop i (zero-based, in the given order)
    contributes counts[i] - 1 chain labels, consecutively.  Hub children
    are emitted in loop order with exact cumulative offsets; chain
    prototiles are pass-through.
    """
    if math.gcd(*counts) != 1:
        raise ParameterError(f"loop counts {counts} must be coprime overall")
    size = 1 + sum(c - 1 for c in counts)
    exponents = [0] * size
    starts: list[int] = []
    nxt = 2
    for c in counts:
        starts.append(nxt)
        for s in range(1, c):
            exponents[nxt + s - 2] = c - s
        nxt += c - 1

    hub_children: list[tuple[int, XiSum]] = []
    offset = XiSum.zero()
    for i, c in enumerate(counts):
        child = starts[i] if c >= 2 else 1
        hub_children.append((child, offset))
        offset = offset.plus_power(-c)
    images: list[tuple[tuple[int, XiSum], ...]] = [tuple(hub_children)]
    for i, c in enumerate(counts):
        for s in range(1, c):
            label = starts[i] + s - 1
            succ = label + 1 if s <= c - 2 else 1
            images.append(((succ, XiSum.zero()),))
    return tuple(exponents), tuple(images)


def build_rho(n: int, m: int) -> PrimitiveRule:
    """The covering fixed-scale rule for the commensurable ratio n/m."""
    check_exponent_pair(n, m)
    if n == m:
        raise ParameterError("the lattice ratio (1, 1) needs no cover")
    alpha = solve_alpha(n, m)
    xi = alpha ** (-1.0 / n)
    exponents, images = _loop_rule((n, m), xi)
    lengths = tuple(xi**-e for e in exponents)
    return PrimitiveRule(
        n=n,
        m=m,
        alpha=alpha,
        xi=xi,
        length_exponents=exponents,
        prototile_lengths=lengths,
        image_map=images,
    )


def build_three_interval_rule(n: int, m: int, k: int) -> ThreeIntervalRule:
    """Fixed-scale rule for a three-way split with loop counts n >= m >= k."""
    if not (n >= m >= k >= 1):
        raise ParameterError(f"need n >= m >= k >= 1, got ({n}, {m}, {k})")
    if math.gcd(math.gcd(n, m), k) != 1:
        raise ParameterError(f"loop counts ({n}, {m}, {k}) must be coprime overall")
    if n == m == k:
        raise ParameterError("equal loop counts give the trivial lattice split")
    xi = solve_inflation((n, m, k))
    exponents, images = _loop_rule((n, m, k), xi)
    return ThreeIntervalRule(
        loops=(n, m, k),
        xi=xi,
        length_exponents=exponents,
        prototile_lengths=tuple(xi**-e for e in exponents),
        image_map=images,
        polynomial=_loop_polynomial(n, (n, m, k)),
    )


def substitution_matrix(rule: PrimitiveRule | ThreeIntervalRule) -> SubstitutionMatrix:
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


def tile_counts(matrix: SubstitutionMatrix, ell: int) -> tuple[int, ...]:
    """Exact prototile counts after ell steps applied to the hub tile."""
    power = matrix.power(ell)
    return tuple(row[0] for row in power.entries)


def iterate_primitive(
    rule: PrimitiveRule | ThreeIntervalRule,
    ell: int,
    max_tiles: int = engine.DEFAULT_TILE_CAP,
) -> Patch:
    """The labelled patch after ell inflate-and-subdivide steps on the hub.

    Tiles are exact translates of prototiles; positions are integer sums
    of powers of xi, built by the recursion p -> xi * (p + offset).
    """
    if ell < 0:
        raise ParameterError("ell must be nonnegative")
    matrix = substitution_matrix(rule)
    expected = sum(tile_counts(matrix, ell))
    if expected > max_tiles:
        raise ResourceLimitError(
            f"patch would contain {expected} tiles, above the cap {max_tiles}"
        )
    xi = rule.xi
    current: list[tuple[int, XiSum]] = [(1, XiSum.zero())]
    for _ in range(ell):
        grown: list[tuple[int, XiSum]] = []
        for label, pos in current:
            for child, offset in rule.image_map[label - 1]:
                grown.append((child, (pos + offset).shifted(1)))
        current = grown
    tiles = tuple(
        Tile(
            position=pos,
            length=XiPower(rule.length_exponents[label - 1]),
            position_value=pos.value(xi),
            length_value=rule.prototile_lengths[label - 1],
            label=label,
        )
        for label, pos in current
    )
    info = {"ell": ell, "xi": xi, "rule_size": rule.size}
    return Patch(tiles=tiles, support=(0.0, xi**ell), info=info)


@dataclass(frozen=True)
class CoverReport:
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


def _xi_sum_coincide(a: XiSum, b: XiSum, n: int, m: int) -> bool:
    """Exact equality of two xi-power sums as real numbers.

    Raw term equality decides almost every case.  Otherwise the
    difference is reduced modulo the defining relation
    xi**n = xi**(n-m) + 1: shift to clear negative powers, then take the
    remainder modulo x**n - x**(n-m) - 1; a zero remainder certifies
    equality of the values.
    """
    if a == b:
        return True
    diff = a + XiSum([(p, -c) for p, c in b.terms])
    if not diff.terms:
        return True
    low = min(p for p, _ in diff.terms)
    shift = max(0, -low)
    poly = IntPolynomial.from_terms({p + shift: c for p, c in diff.terms})
    relation = IntPolynomial.from_terms({n: 1, n - m: -1, 0: -1})
    _, rem = divmod(poly, relation)
    return rem.is_zero


def verify_cover(
    n: int,
    m: int,
    ell: int,
    max_tiles: int = engine.DEFAULT_TILE_CAP,
) -> CoverReport:
    """Check that the fixed-scale patch equals the multiscale patch.

    Both sides are generated independently with exact positions: the
    multiscale side by integer-mode substitution in the engine, the
    fixed-scale side by iterating the covering rule.  Tiles must agree
    one for one in position and length after forgetting labels.
    """
    rule = build_rho(n, m)
    fixed = iterate_primitive(rule, ell, max_tiles=max_tiles)
    multi = engine.generate_patch_commensurable(n, m, ell, max_tiles=max_tiles)
    raw_equal = True
    first_mismatch: int | None = None
    ok = len(fixed) == len(multi)
    if not ok:
        first_mismatch = -1
    else:
        for i, (ft, mt) in enumerate(zip(fixed.tiles, multi.tiles)):
            if not isinstance(ft.length, XiPower) or not isinstance(mt.length, XiPower):
                raise ParameterError("cover check needs xi-power lengths")
            if ft.length.exponent != mt.length.exponent:
                ok = False
                first_mismatch = i
                break
            if ft.position != mt.position:
                raw_equal = False
                if not _xi_sum_coincide(ft.position, mt.position, n, m):
                    ok = False
                    first_mismatch = i
                    break
    return CoverReport(
        ok=ok,
        n=n,
        m=m,
        ell=ell,
        tile_count=len(fixed),
        first_mismatch=first_mismatch,
        raw_equal=raw_equal and ok,
    )
