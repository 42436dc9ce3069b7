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
watches the second eigenvalue.  The verdicts take the loops from the
ratio, (n, m), or from the three-interval rule (``LoopRule.loops``), and
build that polynomial from them; no matrix is built on the way.
``eigenspace_not_perp`` is the SVD test on a matrix that this replaces;
the package no longer calls it, and it stays public for the benchmark's
traced replay, which rebuilds the matrix and its ``char_poly``.

The nonzero spectrum here is the root set of f(x) = x^n - x^(n-m) - 1.
Numerically deciding "modulus one" is hopeless at the boundary, so an
exact test runs alongside the numerics: for these trinomials a root on
the unit circle forces divisibility by x^2 - x + 1 (the root must be a
primitive sixth root of unity), and for the quadrinomials of the
three-interval rules all cyclotomic factors up to a configurable order
are tried by exact division.

The closed classification: the endpoint set is uniformly spread exactly
for the ratios 1, 3/2, 2, 3 and 4, the four nontrivial ones being the
ratios whose f is the minimal polynomial of a Pisot number (golden,
plastic, supergolden and the quartic x^4 - x^3 - 1 root).
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass  # the reports support dataclasses.replace
from fractions import Fraction

from .cover import (
    SubstitutionMatrix,
    _loop_polynomial,
    build_three_interval_rule,
)
from .errors import ParameterError, ResourceLimitError
from .params import (
    Commensurable,
    Incommensurable,
    RatioClass,
    check_exponent_pair,
    f_alpha_poly,
    solve_alpha,
)
from .polynomials import IntPolynomial, cyclotomic
from .rootfind import _roots_and_residuals

__all__ = [
    "SpreadClass",
    "Rationale",
    "SpectralReport",
    "SpreadVerdict",
    "SurveyRow",
    "f_alpha_poly",
    "has_unit_circle_factor",
    "unit_circle_factors",
    "is_pv_trinomial",
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

#: Log-length ratios with a uniformly spread endpoint set.
SPREAD_RATIOS = frozenset(
    {Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3), Fraction(4)}
)

#: The four trinomials x^n - x^(n-m) - 1 that are Pisot minimal polynomials.
_PV_TRINOMIAL_PAIRS = frozenset({(2, 1), (3, 2), (3, 1), (4, 1)})

_MODULUS_SLACK = 1e-9
_PERP_TOL = 1e-9
_EIGENVALUE_TOL = 1e-6
_CYCLOTOMIC_ORDER_BOUND = 60

#: Largest degree of a nonzero spectrum the Solomon test will root-find.
#: One pure-Python Aberth sweep costs ~degree**2 and the sweep count grows
#: with the degree: ``classify`` took 8-9 s at degree 450 and 11 s at 500
#: (2-vCPU Xeon, CPython 3.11).  Larger spectra are refused up front.
MAX_SPECTRAL_DEGREE = 450


class SpreadClass(str, enum.Enum):
    SPREAD = "Spread"
    NOT_SPREAD = "NotSpread"
    BOUNDARY = "Boundary"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class Rationale(str, enum.Enum):
    LATTICE = "lattice"
    INCOMMENSURABLE = "incommensurable"
    PV_SPECTRUM = "pv-spectrum"
    NON_PV_SPECTRUM = "non-pv-spectrum"
    UNIT_CIRCLE_FACTOR = "unit-circle-factor"
    UNRESOLVED_NEAR_UNIT = "unresolved-near-unit"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


def _is_two_split_trinomial(poly: IntPolynomial) -> bool:
    """Recognize the exact shape x^n - x^k - 1 with 0 < k < n."""
    coeffs = poly.coeffs
    if len(coeffs) < 3 or coeffs[-1] != 1 or coeffs[0] != -1:
        return False
    middles = [c for c in coeffs[1:-1] if c]
    return middles == [-1]


def unit_circle_factors(
    poly: IntPolynomial, order_bound: int = _CYCLOTOMIC_ORDER_BOUND
) -> tuple[IntPolynomial, ...]:
    """Cyclotomic polynomials that divide ``poly`` exactly.

    For the two-split trinomials x^n - x^k - 1 a unit-circle root can
    only be a primitive sixth root of unity, so only x^2 - x + 1 needs
    testing.  Other shapes get the full sweep of cyclotomic orders up to
    ``order_bound``.
    """
    if poly.is_zero:
        raise ParameterError("the zero polynomial is not a valid spectrum")
    if _is_two_split_trinomial(poly):
        orders: tuple[int, ...] = (6,)
    else:
        orders = tuple(range(1, order_bound + 1))
    # cyclotomic(k) divides x^k - 1, so it divides poly exactly when it
    # divides poly mod x^k - 1: the terms folded onto degrees below k
    terms = [(power, c) for power, c in enumerate(poly.coeffs) if c]
    found = []
    for order in orders:
        phi = cyclotomic(order)
        if phi.degree > poly.degree:
            continue
        folded = [0] * order
        for power, c in terms:
            folded[power % order] += c
        if IntPolynomial(tuple(folded)).is_divisible_by(phi):
            found.append(phi)
    return tuple(found)


def has_unit_circle_factor(
    poly: IntPolynomial, order_bound: int = _CYCLOTOMIC_ORDER_BOUND
) -> bool:
    """Exact test for roots on the unit circle of cyclotomic origin."""
    return bool(unit_circle_factors(poly, order_bound))


def is_pv_trinomial(n: int, m: int) -> bool:
    """Whether x^n - x^(n-m) - 1 is the minimal polynomial of a Pisot number.

    Decided by exact coefficient match against the known complete list
    of such trinomials rather than by numerics.
    """
    check_exponent_pair(n, m)
    if n == m:
        return False
    poly = f_alpha_poly(n, m)
    return any(poly == f_alpha_poly(a, b) for a, b in _PV_TRINOMIAL_PAIRS)


def _pv_three_interval_family(poly: IntPolynomial) -> str | None:
    """Name of the Pisot family containing ``poly``, if any.

    The families: the sporadic x^5 - x^4 - x^2 - 1, the line
    x^d - 2x^(d-1) - 1 for d >= 1, and x^d - x^(d-1) - x^(d-2) - 1 for
    odd d >= 3.
    """
    d = poly.degree
    if d >= 1 and poly == IntPolynomial.from_terms({d: 1, d - 1: -2, 0: -1}):
        return "x^d - 2x^(d-1) - 1"
    if d >= 3 and d % 2 == 1 and poly == IntPolynomial.from_terms(
        {d: 1, d - 1: -1, d - 2: -1, 0: -1}
    ):
        return "x^d - x^(d-1) - x^(d-2) - 1"
    if poly == IntPolynomial.from_terms({5: 1, 4: -1, 2: -1, 0: -1}):
        return "x^5 - x^4 - x^2 - 1"
    return None


def is_pv_three_interval(poly: IntPolynomial) -> bool:
    return _pv_three_interval_family(poly) is not None


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


def check_spectral_degree(degree: int) -> None:
    """Refuse a nonzero spectrum of degree above ``MAX_SPECTRAL_DEGREE``."""
    if degree > MAX_SPECTRAL_DEGREE:
        raise ResourceLimitError(
            f"a spectrum of degree {degree} is above the limit {MAX_SPECTRAL_DEGREE}"
        )


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
    never 0 (module docstring).  Near the unit circle the exact
    cyclotomic-divisibility test overrides the numerics; a modulus
    within tolerance of one without an exact factor is reported Boundary
    with the unresolved flag set.  A spectrum of degree above
    ``MAX_SPECTRAL_DEGREE`` is refused with ResourceLimitError before
    any root is sought.
    """
    if len(loops) < 2 or min(loops) < 1:
        raise ParameterError("need at least two loops with positive edge counts")
    top = max(loops)
    check_spectral_degree(top)
    reduced = _loop_polynomial(top, loops)
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
    unit_exact = has_unit_circle_factor(reduced)
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
    theorem = Fraction(n, m) in SPREAD_RATIOS
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
    families is tested exactly; the Solomon criterion runs on the
    rule's loops as an independent check.
    """
    check_spectral_degree(n)  # before the rule is built
    rule = build_three_interval_rule(n, m, k)
    report = solomon_verdict(rule.loops)
    family = _pv_three_interval_family(rule.polynomial)
    member = family is not None
    if report.solomon is SpreadClass.BOUNDARY:
        mismatch = member  # a Pisot-family polynomial cannot sit on the circle
    else:
        mismatch = (report.solomon is SpreadClass.SPREAD) != member
    return ThreeIntervalVerdict(
        loops=rule.loops,
        polynomial=rule.polynomial,
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


def survey(max_n: int) -> tuple[SurveyRow, ...]:
    """Classify every coprime ratio n/m with 1 <= m <= n <= max_n.

    Rows are ordered by (n, m).  The lattice pair (1, 1) appears as the
    first row, with the doubling eigenvalue 2 and no second eigenvalue.
    """
    if max_n < 1:
        raise ParameterError("max_n must be at least 1")
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
