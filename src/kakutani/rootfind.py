"""Simultaneous polynomial root finding.

Aberth-Ehrlich iteration with a deterministic start: the initial guesses
sit equally spaced on the circle of the Cauchy root bound, rotated by a
fixed offset so no guess lands on a symmetry axis.  A sweep is
Gauss-Seidel: root i moves by the Newton ratio p/p' corrected by its
repulsion sum over the other roots, one pass over them in index order
that already reads this sweep's updates of the roots before i.  Every
root is then polished independently by a few Newton steps and checked
against a residual bound that scales with the root's magnitude.

p and p' are evaluated by Horner's rule over the polynomial's run
table, built once and read by the sweep, the polish, the residual check
and the Cauchy bound: each nonzero coefficient of p with the aligned
coefficient of p' and the number of zero coefficients after it, for
which only the multiply by z runs.  A flower polynomial has three or
four terms, so an evaluation tests no coefficient.  Skipping the add of
an exact 0.0 could flip only the sign of a zero part, never a nonzero
bit, and a residual's modulus ignores that sign.

At a repeated root the sweep stalls: its largest step stops shrinking
near 1e-8.  When the largest step has not shrunk for ``_STALL_SWEEPS``
sweeps, gcd(p, p') is computed once; if it is nontrivial the sweep
gives up at once and hands it over on its error, and the roots come
from p / gcd(p, p') and gcd(p, p'), each split the same way.  A
squarefree p sweeps on to the cap as before, so where it converges no
bit depends on the test.  The whole procedure is deterministic:
identical inputs give bit-identical output.
"""
from __future__ import annotations

import cmath
import math
from itertools import repeat

from .errors import NumericError, ParameterError
from .polynomials import IntPolynomial, poly_gcd

__all__ = ["find_roots", "residual_bound", "root_residual"]

_ABERTH_MAX_ITER = 400
_ABERTH_STEP_TOL = 1e-14
# the longest run of sweeps without a smaller largest step was 22 over
# some 1,800 flower polynomials that converge, degrees 2 to 450
_STALL_SWEEPS = 32
_NEWTON_STEPS = 6
_RESIDUAL_SCALE = 1e-12
# complex / complex runs the same quotient as float / complex, without
# first trying float's slot
_ONE = complex(1.0, 0.0)


class _Unconverged(NumericError):
    """An Aberth sweep that gave up, with gcd(p, p') of its polynomial."""

    def __init__(self, message: str, common: IntPolynomial):
        super().__init__(message)
        self.common = common


def residual_bound(degree: int, z: complex) -> float:
    """Acceptance threshold for |p(z)| at a claimed root z."""
    return _RESIDUAL_SCALE * (1.0 + abs(z)) ** degree


#: A run table of p (see ``_run_table``) and its constant term.
_RunTable = tuple[list[tuple[float, float, int]], float]


def _run_table(poly: IntPolynomial) -> _RunTable:
    """The run table of p, and its constant term.

    Each run is a nonzero coefficient of p but the constant, descending,
    the aligned coefficient of p', and the number of zero coefficients
    between it and the next nonzero one or the constant.
    """
    coeffs = poly.coeffs[::-1]
    degree = len(coeffs) - 1
    starts = [k for k, c in enumerate(coeffs[:-1]) if c]
    ends = starts[1:] + [degree]
    # the coefficient at power degree - k, times that power, is p' there
    runs = [
        (float(coeffs[k]), float((degree - k) * coeffs[k]), end - k - 1)
        for k, end in zip(starts, ends)
    ]
    return runs, float(coeffs[-1]) if coeffs else 0.0


def _horner_pair(runs: list[tuple[float, float, int]], last: float, z: complex):
    """p(z) and p'(z) in one loop over the run table ``runs`` of p.

    Each value follows its own Horner recurrence; a zero coefficient
    only multiplies by z, and ``last``, the constant, is added at the
    end.
    """
    p = dp = 0j
    for c, d, zeros in runs:
        p = p * z + c
        dp = dp * z + d
        for _ in repeat(None, zeros):
            p = p * z
            dp = dp * z
    return p * z + last, dp


def root_residual(poly: IntPolynomial, z: complex) -> float:
    return abs(_horner_pair(*_run_table(poly), z)[0])


def _sort_key(z: complex):
    return (-abs(z), round(z.real, 12), round(z.imag, 12))


def find_roots(poly: IntPolynomial) -> tuple[complex, ...]:
    """All complex roots of an integer polynomial, multiplicity included.

    Roots are returned sorted by decreasing modulus (ties by real part,
    then imaginary part).  Zero roots are split off exactly beforehand.
    Raises NumericError if the iteration fails to meet the residual
    bound ``1e-12 * (1 + |z|)**degree``.
    """
    return _roots_and_residuals(poly)[0]


def _roots_and_residuals(poly: IntPolynomial) -> tuple[tuple[complex, ...], tuple[float, ...]]:
    """``find_roots`` together with the residual ``root_residual(poly, z)``
    of each root, which the bound check has already computed."""
    if poly.is_zero:
        raise ParameterError("the zero polynomial has no well-defined roots")
    reduced, zero_mult = poly.strip_zero_roots()
    table = _run_table(poly)
    roots: list[complex] = [0j] * zero_mult
    if reduced.degree >= 1:
        roots.extend(_split_roots(reduced, _run_table(reduced) if zero_mult else table))
    roots.sort(key=_sort_key)
    full_degree = poly.degree
    runs, last = table
    residuals = []
    for z in roots:
        res = abs(_horner_pair(runs, last, z)[0])
        if res > residual_bound(full_degree, z):
            raise NumericError(
                f"root residual {res:.3e} exceeds bound at z={z!r} "
                f"for {poly!r}"
            )
        residuals.append(res)
    return tuple(roots), tuple(residuals)


def _split_roots(poly: IntPolynomial, table: _RunTable) -> list[complex]:
    """The roots of ``_aberth`` on p and its run table; where its sweep
    stalls, as it does at a repeated root, those of p / gcd(p, p') and
    of gcd(p, p'), each split the same way.  A squarefree p that stalls
    still raises."""
    try:
        return _aberth(poly, table)
    except _Unconverged as error:
        common = error.common
        if common.degree < 1:
            raise
        rest = divmod(poly, common)[0]
        return _split_roots(rest, _run_table(rest)) + _split_roots(common, _run_table(common))


def _aberth(poly: IntPolynomial, table: _RunTable) -> list[complex]:
    """The roots of p, of degree >= 1, from its run table ``table``."""
    degree = poly.degree
    runs, last = table
    lead = runs[0][0]
    # the Cauchy bound: the zero coefficients, absent from the table, add nothing
    radius = 1.0 + max([abs(c / lead) for c, _, _ in runs[1:]] + [abs(last / lead)])
    offset = math.pi / (2.0 * degree)
    z = [
        radius * cmath.exp(1j * (2.0 * math.pi * k / degree + offset))
        for k in range(degree)
    ]
    one = _ONE
    converged = False
    least = math.inf  # the smallest largest step so far
    stale = 0  # sweeps since it shrank
    common = None  # gcd(p, p'), once the sweep has stalled
    for _ in range(_ABERTH_MAX_ITER):
        biggest = 0.0
        for i in range(degree):
            zi = z[i]
            p, dp = _horner_pair(runs, last, zi)
            if p == 0:
                continue
            if dp == 0:
                # nudge off a critical point, deterministically
                z[i] = zi + 1e-8 * (1 + 1j)
                biggest = math.inf
                continue
            ratio = p / dp
            # Gauss-Seidel: z[:i] already holds this sweep's updates.  One
            # running sum from int 0 in index order; every entry of z is
            # its own object, so the identity test skips entry i alone
            rep = 0
            for w in z:
                if w is not zi:
                    rep += one / (zi - w)
            denom = 1.0 - ratio * rep
            step = ratio if denom == 0 else ratio / denom
            zi = z[i] = zi - step
            rel = abs(step) / (1.0 + abs(zi))
            if rel > biggest:
                biggest = rel
        if biggest < _ABERTH_STEP_TOL:
            converged = True
            break
        if biggest < least:
            least, stale = biggest, 0
        else:
            stale += 1
            if stale == _STALL_SWEEPS:
                common = poly_gcd(poly, poly.derivative())
                if common.degree >= 1:
                    break  # a repeated root: _split_roots takes over
                least = -math.inf  # squarefree: stale never resets, no second gcd
    if not converged:
        if common is None:  # the cap came before a stall
            common = poly_gcd(poly, poly.derivative())
        raise _Unconverged(
            f"Aberth iteration did not converge in {_ABERTH_MAX_ITER} steps "
            f"for {poly!r} (last relative step {biggest:.3e})",
            common,
        )
    # independent Newton polish per root
    for i in range(degree):
        zi = z[i]
        for _ in range(_NEWTON_STEPS):
            p, dp = _horner_pair(runs, last, zi)
            if p == 0 or dp == 0:
                break
            nxt = zi - p / dp
            if abs(nxt - zi) <= 1e-16 * (1.0 + abs(zi)):
                zi = nxt
                break
            zi = nxt
        z[i] = zi
    # snap conjugate-symmetric output: pair each root with its mirror
    return _conjugate_clean(z)


def _conjugate_clean(roots: list[complex]) -> list[complex]:
    """Make near-real roots real and average conjugate pairs.

    Real coefficients force a conjugate-closed root multiset; roundoff
    breaks the symmetry at the last digit, which would leak into sorted
    output order.  Pair mirror roots greedily, each with the first of
    the nearest, and symmetrize them.
    """
    out: list[complex] = []
    pool = list(roots)
    while pool:
        z = pool.pop()
        if abs(z.imag) <= 1e-10 * (1.0 + abs(z.real)):
            out.append(complex(z.real, 0.0))
            continue
        mirror = z.conjugate()
        gaps = [abs(w - mirror) for w in pool]
        gap = min(gaps, default=math.inf)
        if gap <= 1e-8 * (1.0 + abs(z)):
            w = pool.pop(gaps.index(gap))
            re = 0.5 * (z.real + w.real)
            im = 0.5 * (abs(z.imag) + abs(w.imag))
            out.append(complex(re, im))
            out.append(complex(re, -im))
        else:
            out.append(z)
    return out
