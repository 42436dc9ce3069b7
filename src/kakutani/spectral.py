"""Spectral classification of uniform spreadness.

For a commensurable ratio n/m the Delone set of tile endpoints is a
bounded displacement of a lattice exactly when the covering substitution
passes the Solomon criterion: writing the nonzero eigenvalues of the
substitution matrix in decreasing modulus, find the smallest index
ell >= 2 whose eigenspace is not orthogonal to the all-ones vector; the
set is uniformly spread if that eigenvalue has modulus below one and is
not if the modulus exceeds one.  Modulus exactly one is out of scope of
the criterion and reported as Boundary, never silently resolved.

Here ell is always 2, with no linear algebra.  Every rule is a flower:
one hub with loops of c_1 ... c_p edges, p >= 2, and its nonzero
eigenvalues are the roots of 1 = sum(lambda**-c_i).  For such a root
lambda the right eigenvector is 1 at the hub and lambda**-s at step s
of each loop, so every eigenspace is a line, and its entries sum to

    1 + sum_i sum_{s=1}^{c_i - 1} lambda**-s
      = 1 + (p - lambda * sum_i lambda**-c_i) / (lambda - 1)
      = (p - 1) / (lambda - 1),

which is never 0 (lambda = 1 is no root: sum(1) = p >= 2).  So no
eigenspace is orthogonal to the all-ones vector, and the criterion
watches the second eigenvalue.  The verdicts take two or three loops:
from the ratio, (n, m), or from the loop counts (n, m, k) of a
three-interval rule, and build that polynomial from them; no rule and
no matrix is built on the way, and a three-loop verdict solves for no
alpha.  ``eigenspace_not_perp`` is the SVD test on a matrix that this
replaces; the package no longer calls it, and it stays public for the
benchmark's traced replay, which rebuilds the matrix and its
``char_poly``.

Numerically deciding "modulus one" is hopeless at the boundary, so an
exact test runs alongside the numerics, read off the loops.  A root
lambda on the unit circle makes 1 = sum(lambda**-c_i) a sum of unit
vectors.  For two loops, lambda**-c_1 + lambda**-c_2 - 1 = 0 is a
triangle of three unit vectors, so the two are exp(+-i*pi/3), and for
coprime loops lambda is a primitive sixth root of unity omega: the
factor x^2 - x + 1, present when the loops are 1 and 5 mod 6, as
omega**-c_1 and omega**-c_2 must be omega and omega**5.  For three
loops the four unit vectors lambda**-c_1, lambda**-c_2, lambda**-c_3
and -1 sum to zero, so they pair off into opposite vectors:
lambda**c_i = 1 for one loop and lambda**(c_j - c_k) = -1 for the
other two, and every such lambda is a root.  So the cyclotomic factors
are Phi_d for exactly the orders d that divide c_i and 2(c_j - c_k)
but not c_j - c_k, over the three choices of i (after Ljunggren, Math.
Scand. 8, 1960).  No polynomial is divided.

The closed classification: the endpoint set is uniformly spread exactly
for the ratios 1, 3/2, 2, 3 and 4, the four nontrivial ones being the
ratios whose f is the minimal polynomial of a Pisot number (golden,
plastic, supergolden and the quartic x^4 - x^3 - 1 root).
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass  # the reports support dataclasses.replace
from typing import TYPE_CHECKING

from .errors import ParameterError, ResourceLimitError
from .params import (
    MAX_SPECTRAL_DEGREE,
    Commensurable,
    Incommensurable,
    RatioClass,
    check_loop_triple,
    check_spectral_degree,
    solve_alpha,
)
from .polynomials import IntPolynomial, cyclotomic, loop_polynomial
from .rootfind import _roots_and_residuals

if TYPE_CHECKING:
    from .cover import SubstitutionMatrix

__all__ = [
    "SpreadClass",
    "Rationale",
    "SpectralReport",
    "SpreadVerdict",
    "SurveyRow",
    "unit_circle_factors",
    "is_pv_three_interval",
    "eigenspace_not_perp",
    "MAX_SPECTRAL_DEGREE",
    "check_spectral_degree",
    "solomon_verdict",
    "classify_spreadness",
    "classify_three_interval",
    "survey",
    "SPREAD_RATIOS",
]

#: Log-length ratios n/m with a uniformly spread endpoint set, as the pairs
#: (n, m) 1/1, 3/2, 2/1, 3/1 and 4/1; a plain tuple (n, m) matches too.
SPREAD_RATIOS = frozenset(Commensurable(*p) for p in ((1, 1), (3, 2), (2, 1), (3, 1), (4, 1)))

_MODULUS_SLACK = 1e-9
_PERP_TOL = 1e-9
_EIGENVALUE_TOL = 1e-6


class SpreadClass(str, enum.Enum):
    SPREAD = "Spread"
    NOT_SPREAD = "NotSpread"
    BOUNDARY = "Boundary"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class Rationale(str, enum.Enum):
    """Why a verdict came out as it did, in the sentence ``classify`` reports."""

    LATTICE = "lattice tiling, trivially uniformly spread"
    INCOMMENSURABLE = "incommensurable ratio: discrepancy grows like window/log(window)"
    PV_SPECTRUM = "all secondary eigenvalues strictly inside the unit circle"
    NON_PV_SPECTRUM = "a secondary eigenvalue lies strictly outside the unit circle"
    UNIT_CIRCLE_FACTOR = "exact cyclotomic factor puts an eigenvalue on the unit circle"
    UNRESOLVED_NEAR_UNIT = "secondary eigenvalue numerically at the unit circle, unresolved"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


def _flower_loops(poly: IntPolynomial) -> tuple[int, ...]:
    """The loops c_i, longest first, of the shape x^K - sum(x^(K - c_i)),
    equal loops adding up; none for any other shape, or for one with a
    root at 0."""
    coeffs = poly.coeffs
    if coeffs[-1:] != (1,) or not coeffs[0] or any(c > 0 for c in coeffs[:-1]):
        return ()
    return tuple(poly.degree - power for power, c in enumerate(coeffs[:-1]) for _ in range(-c))


def _unit_orders(loops: tuple[int, ...]) -> tuple[int, ...]:
    """Orders d, increasing, of the cyclotomic factors Phi_d of the flower
    with two or three loops: the roots of 1 = sum(lambda**-c_i) on the
    unit circle, read off the loops (module docstring).  Two coprime
    loops have the sixth roots of unity exactly when their lengths are 1
    and 5 mod 6; three have the orders d dividing c_i and 2(c_j - c_k)
    but not c_j - c_k, for some loop i and the other two j and k."""
    if len(loops) == 2:
        return (6,) if {loops[0] % 6, loops[1] % 6} == {1, 5} else ()
    orders = set()
    for i, c in enumerate(loops):
        e = loops[i - 1] - loops[i - 2]  # the other two loops
        g = math.gcd(c, 2 * e)
        orders.update(d for d in range(1, g + 1) if g % d == 0 and e % d)
    return tuple(sorted(orders))


def unit_circle_factors(poly: IntPolynomial) -> tuple[IntPolynomial, ...]:
    """Cyclotomic polynomials that divide ``poly`` exactly, in increasing
    order, for the polynomial x^c - sum(x^(c - c_i)) of a flower with two
    or three loops (``_unit_orders``).  Any other shape is refused with
    ParameterError.
    """
    loops = _flower_loops(poly)
    if len(loops) not in (2, 3):
        raise ParameterError(f"{poly} is not the polynomial of a flower with two or three loops")
    return tuple(map(cyclotomic, _unit_orders(loops)))


def _pv_family(loops: tuple[int, ...]) -> str | None:
    """Name of the Pisot family holding the flower with these loops,
    longest first, if any.

    The families: the sporadic x^5 - x^4 - x^2 - 1, loops (5, 3, 1);
    the line x^d - 2x^(d-1) - 1 for d >= 1, loops (d, 1, 1); and
    x^d - x^(d-1) - x^(d-2) - 1 for odd d >= 3, loops (d, 2, 1).
    """
    if loops[1:] == (1, 1):
        return "x^d - 2x^(d-1) - 1"
    if loops[1:] == (2, 1) and loops[0] % 2 == 1:
        return "x^d - x^(d-1) - x^(d-2) - 1"
    if loops == (5, 3, 1):
        return "x^5 - x^4 - x^2 - 1"
    return None


def is_pv_three_interval(poly: IntPolynomial) -> bool:
    """Whether ``poly`` is the polynomial x^d - x^(d-m) - x^(d-k) - 1 of
    three loops (d, m, k) in a Pisot family of ``_pv_family``."""
    loops = _flower_loops(poly)
    return len(loops) == 3 and _pv_family(loops) is not None


def eigenspace_not_perp(matrix: SubstitutionMatrix, eigenvalue: complex) -> bool:
    """Whether the eigenspace of ``eigenvalue`` is not orthogonal to all-ones.

    The eigenspace basis comes from the SVD null space of M - lambda I;
    the test passes when some basis vector has |<1, v>| above tolerance.
    Raises if ``eigenvalue`` is not actually an eigenvalue.
    """
    import numpy as np  # imported on first use: a package import loads no numpy

    size = matrix.size
    work = np.array(matrix.entries, dtype=complex)
    work -= eigenvalue * np.eye(size)
    _u, sing, vh = np.linalg.svd(work)
    scale = max(1.0, float(sing[0]))
    null_mask = sing <= _EIGENVALUE_TOL * scale
    if size > len(sing):  # pragma: no cover - square matrices only
        raise ParameterError("malformed SVD")
    if not bool(null_mask.any()):
        raise ParameterError(
            f"{eigenvalue!r} is not an eigenvalue of the matrix within tolerance"
        )
    ones = np.ones(size, dtype=complex)
    for idx in np.nonzero(null_mask)[0]:
        vec = vh[idx].conj()
        if abs(np.dot(ones, vec)) > _PERP_TOL * float(np.linalg.norm(vec)):
            return True
    return False


@dataclass(frozen=True)
class SpectralReport:
    """Solomon-criterion data for one flower."""

    lambda1: float
    lambda2_modulus: float
    has_unit_modulus_eigenvalue: bool
    roots: tuple[complex, ...]
    residuals: tuple[float, ...]
    ell: int
    solomon: SpreadClass
    unresolved: bool = False


def solomon_verdict(loops: tuple[int, ...]) -> SpectralReport:
    """Apply the Solomon criterion to the flower with the given loops.

    The nonzero spectrum is the root set of x**c - sum(x**(c - c_i)),
    c the longest loop: the characteristic polynomial of the rule's
    matrix with its power of x stripped (``cover`` module docstring).
    It is built exactly from the loops, and its roots are found
    numerically.  Two loops of one edge are the lattice: the single
    eigenvalue 2, with nothing for the criterion to watch.  The
    criterion watches the second root, ``ell = 2``, with no eigenspace
    computed: the eigenvector of a nonzero eigenvalue lambda of a flower
    with p loops, scaled to 1 at the hub, sums to (p - 1) / (lambda - 1),
    never 0 (module docstring).  Near the unit circle the exact test on
    the loops (``_unit_orders``) overrides the numerics; a modulus
    within tolerance of one without an exact factor is reported Boundary
    with the unresolved flag set.  A verdict takes two or three loops,
    in any order; a spectrum of degree above ``MAX_SPECTRAL_DEGREE`` is
    refused with ResourceLimitError before any root is sought.
    """
    if len(loops) not in (2, 3) or min(loops) < 1:
        raise ParameterError("need two or three loops with positive edge counts")
    loops = tuple(sorted(loops, reverse=True))
    check_spectral_degree(loops[0])
    return _verdict(loops, loop_polynomial(loops[0], loops))


def _verdict(loops: tuple[int, ...], reduced: IntPolynomial) -> SpectralReport:
    """``solomon_verdict`` on the loops, longest first, and their
    polynomial ``reduced``."""
    if reduced.degree == 1:
        # a single nonzero eigenvalue: nothing for the criterion to watch
        only = float(-reduced.coeffs[0])
        return SpectralReport(
            lambda1=only,
            lambda2_modulus=0.0,
            has_unit_modulus_eigenvalue=False,
            roots=(complex(only, 0.0),),
            residuals=(0.0,),
            ell=0,
            solomon=SpreadClass.SPREAD,
        )
    roots, residuals = _roots_and_residuals(reduced)
    lambda1 = roots[0]
    if abs(lambda1.imag) > _MODULUS_SLACK or lambda1.real <= 1.0:
        raise ParameterError(
            f"leading eigenvalue {lambda1!r} is not a real inflation factor"
        )
    unit_exact = bool(_unit_orders(loops))
    watched = abs(roots[1])
    unresolved = False
    if watched > 1.0 + _MODULUS_SLACK:
        verdict = SpreadClass.NOT_SPREAD
    elif unit_exact:
        verdict = SpreadClass.BOUNDARY
    elif watched < 1.0 - _MODULUS_SLACK:
        verdict = SpreadClass.SPREAD
    else:
        verdict = SpreadClass.BOUNDARY
        unresolved = True
    return SpectralReport(
        lambda1=float(lambda1.real),
        lambda2_modulus=float(watched),
        has_unit_modulus_eigenvalue=unit_exact,
        roots=roots,
        residuals=residuals,
        ell=2,
        solomon=verdict,
        unresolved=unresolved,
    )


@dataclass(frozen=True)
class SpreadVerdict:
    """Combined classification for one ratio class."""

    ratio: RatioClass
    alpha: float
    theorem_verdict: bool
    rationale: Rationale
    spectral: SpectralReport | None
    mismatch: bool

    @property
    def spread_class(self) -> SpreadClass:
        if isinstance(self.ratio, Incommensurable):
            return SpreadClass.NOT_SPREAD
        if self.spectral is None:
            return SpreadClass.SPREAD
        return self.spectral.solomon


def classify_spreadness(ratio: RatioClass, alpha: float | None = None) -> SpreadVerdict:
    """Classify uniform spreadness for a detected ratio class.

    Incommensurable ratios are never uniformly spread (the endpoint
    counting discrepancy grows like window/log(window)).  Commensurable
    ratios go through the Solomon criterion on the loops (n, m) of their
    covering substitution, cross-checked against the closed five-ratio
    list; a disagreement between the two is flagged, and Boundary
    outcomes are reported as such rather than coerced either way.
    """
    if isinstance(ratio, Incommensurable):
        if alpha is None:
            raise ParameterError("incommensurable classification needs alpha")
        return SpreadVerdict(
            ratio=ratio,
            alpha=alpha,
            theorem_verdict=False,
            rationale=Rationale.INCOMMENSURABLE,
            spectral=None,
            mismatch=False,
        )
    n, m = ratio.n, ratio.m
    if n == m:
        return SpreadVerdict(
            ratio=ratio,
            alpha=solve_alpha(n, m) if alpha is None else alpha,
            theorem_verdict=True,
            rationale=Rationale.LATTICE,
            spectral=solomon_verdict((1, 1)),
            mismatch=False,
        )
    check_spectral_degree(n)  # before alpha is solved for
    a = solve_alpha(n, m) if alpha is None else alpha
    report = solomon_verdict((n, m))
    theorem = (n, m) in SPREAD_RATIOS
    if report.solomon is SpreadClass.BOUNDARY:
        rationale = (
            Rationale.UNRESOLVED_NEAR_UNIT
            if report.unresolved
            else Rationale.UNIT_CIRCLE_FACTOR
        )
        mismatch = False
    else:
        rationale = (
            Rationale.PV_SPECTRUM if theorem else Rationale.NON_PV_SPECTRUM
        )
        mismatch = (report.solomon is SpreadClass.SPREAD) != theorem
    return SpreadVerdict(
        ratio=ratio,
        alpha=a,
        theorem_verdict=theorem,
        rationale=rationale,
        spectral=report,
        mismatch=mismatch,
    )


@dataclass(frozen=True)
class ThreeIntervalVerdict:
    """Classification of a three-interval fixed-scale rule."""

    loops: tuple[int, int, int]
    polynomial: IntPolynomial
    pv_member: bool
    pv_family: str | None
    spectral: SpectralReport
    mismatch: bool

    @property
    def spread_class(self) -> SpreadClass:
        return self.spectral.solomon


def classify_three_interval(n: int, m: int, k: int) -> ThreeIntervalVerdict:
    """Spreadness of the three-interval rule with loop counts (n, m, k).

    Membership of x^n - x^(n-m) - x^(n-k) - 1 in the known Pisot
    families is read off the loops exactly; the Solomon criterion runs
    on the same loops as an independent check.  No rule is built: the
    verdict reads the polynomial of the loops, and needs no alpha.
    """
    check_spectral_degree(n)  # before the loops are checked
    check_loop_triple(n, m, k)
    loops = (n, m, k)
    polynomial = loop_polynomial(n, loops)
    report = _verdict(loops, polynomial)
    family = _pv_family(loops)
    member = family is not None
    if report.solomon is SpreadClass.BOUNDARY:
        mismatch = member  # a Pisot-family polynomial cannot sit on the circle
    else:
        mismatch = (report.solomon is SpreadClass.SPREAD) != member
    return ThreeIntervalVerdict(
        loops=loops,
        polynomial=polynomial,
        pv_member=member,
        pv_family=family,
        spectral=report,
        mismatch=mismatch,
    )


@dataclass(frozen=True)
class SurveyRow:
    n: int
    m: int
    alpha: float
    lambda1: float
    lambda2_modulus: float
    solomon: SpreadClass
    theorem: bool


#: Largest cost of a survey to N, sum(n**3 for n <= N) = (N(N+1)/2)**2:
#: up to n - 1 ratios of degree n, each Aberth sweep of one ~n**2.
#: survey(N) took 0.07 / 1.7 / 4.2 / 9.3 / 18 / 37 s at N = 20 / 40 /
#: 50 / 60 / 70 / 80 (in process, 2-vCPU Xeon, CPython 3.11), so the
#: cost of N = 60 keeps a survey within about 10 s.
_MAX_SURVEY_COST = (60 * 61 // 2) ** 2


def survey(max_n: int) -> tuple[SurveyRow, ...]:
    """Classify every coprime ratio n/m with 1 <= m <= n <= max_n.

    Rows are ordered by (n, m).  The lattice pair (1, 1) appears as the
    first row, with the doubling eigenvalue 2 and no second eigenvalue.
    A bound above ``MAX_SPECTRAL_DEGREE``, and then one whose cost is
    above ``_MAX_SURVEY_COST``, is refused with ResourceLimitError
    before any ratio is classified.
    """
    if max_n < 1:
        raise ParameterError("max_n must be at least 1")
    check_spectral_degree(max_n)
    cost = (max_n * (max_n + 1) // 2) ** 2
    if cost > _MAX_SURVEY_COST:
        raise ResourceLimitError(
            f"a survey to n = {max_n} costs {cost} (the sum of n**3), "
            f"above the budget {_MAX_SURVEY_COST} of n = 60"
        )
    rows = []
    for n in range(1, max_n + 1):
        for m in range(1, n + 1):
            if math.gcd(n, m) != 1:
                continue
            verdict = classify_spreadness(Commensurable(n, m))
            report = verdict.spectral
            assert report is not None
            rows.append(
                SurveyRow(
                    n=n,
                    m=m,
                    alpha=verdict.alpha,
                    lambda1=report.lambda1,
                    lambda2_modulus=report.lambda2_modulus,
                    solomon=report.solomon,
                    theorem=verdict.theorem_verdict,
                )
            )
    return tuple(rows)
